#!/usr/bin/env python3
"""Solve-path benchmark: build, run one workload, print one JSON result.

Usage (from the repository root):
  python3 solvebench/run.py --workload <engine-large|serve-cold|serve-hot>
      --seed <n> --seconds <s> --trace <0|1>

Builds the library and the serving daemons with the repository's CMake
(through solvebench/CMakeLists.txt) into .bench_build/solvebench, runs the
driver in a fresh directory under .bench_build/runs, and prints the
driver's output. The last line of standard output is the JSON result.
A traced run (--trace 1) also keeps its Chrome trace and per-layer table
under .bench_build/solvebench-out and validates the trace with
scripts/trace_check.py (all five layers required); a trace that fails
marks the result incorrect.

Exit code 0 with a result; non-zero without one (missing sources, failed
build, driver failure or timeout).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("engine-large", "serve-cold", "serve-hot")
# The driver must end within this many seconds of the run's start
# (building excluded).
RUN_DEADLINE_S = 170
LAYERS = "client,router,server,scheduler,engine"

_child: subprocess.Popen | None = None


def die_with_parent() -> None:
    """Child pre-exec hook: SIGKILL when this script dies (Linux)."""
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    pr_set_pdeathsig = 1
    libc.prctl(pr_set_pdeathsig, signal.SIGKILL)


def on_signal(signum, _frame) -> None:
    if _child is not None and _child.poll() is None:
        _child.terminate()
        try:
            _child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _child.kill()
            _child.wait()
    sys.exit(128 + signum)


def cpu_ticks() -> list[int]:
    """The machine-wide CPU time counters of /proc/stat (user .. steal)."""
    with open("/proc/stat", encoding="ascii") as stat:
        return [int(x) for x in stat.readline().split()[1:9]]


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    # Once configured, `cmake --build` re-runs the configure step itself
    # whenever a CMakeLists.txt changes.
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                  "solvebench", "hypercover_served", "hypercover_router"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return build_dir


def main() -> int:
    global _child
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("solvebench: the repository sources (CMakeLists.txt, src/) are "
              f"missing next to {BENCH_DIR.name}/", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGHUP, on_signal)

    out_root = ROOT / ".bench_build"
    try:
        build_dir = build(out_root / "solvebench")
    except (RuntimeError, OSError) as err:
        print(f"solvebench: {err}", file=sys.stderr)
        return 2

    started = time.monotonic()
    # Runs are sequential: whatever a killed run left behind goes now.
    shutil.rmtree(out_root / "runs", ignore_errors=True)
    run_dir = out_root / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    keep_dir = out_root / "solvebench-out"
    keep_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    trace_file = keep_dir / f"trace-{stem}.json"
    daemons = build_dir / "hypercover"
    cmd = [
        str(build_dir / "solvebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--served", str(daemons / "hypercover_served"),
        "--router", str(daemons / "hypercover_router"),
        "--trace-out", str(trace_file),
    ]
    ticks = cpu_ticks()
    try:
        _child = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                                  text=True, preexec_fn=die_with_parent)
        try:
            stdout, _ = _child.communicate(timeout=RUN_DEADLINE_S)
        except subprocess.TimeoutExpired:
            _child.terminate()
            try:
                _child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                _child.kill()
                _child.wait()
            print("solvebench: the driver did not finish in "
                  f"{RUN_DEADLINE_S} s", file=sys.stderr)
            return 3
        code = _child.returncode
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        print(f"solvebench: the driver exited with code {code}",
              file=sys.stderr)
        return code if code > 0 else 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("solvebench: the driver printed no result", file=sys.stderr)
        return 4

    if args.trace:
        (keep_dir / f"layers-{stem}.txt").write_text(
            "\n".join(lines[:-1]) + "\n")
        check = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "trace_check.py"),
             str(trace_file), f"--require-layers={LAYERS}"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if check.returncode != 0:
            print("solvebench: the trace failed scripts/trace_check.py",
                  file=sys.stderr)
            result["correct"] = False

    for line in lines[:-1]:
        print(line)
    # Time the hypervisor gave to other guests slows every figure; on a
    # shared host, compare runs made at similar steal.
    delta = [b - a for a, b in zip(ticks, cpu_ticks())]
    steal = 100 * delta[7] / max(1, sum(delta))
    print(f"solvebench: driver ran {time.monotonic() - started:.1f} s, "
          f"host steal {steal:.1f} %", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
