#!/usr/bin/env python3
"""Determinism lint: reject nondeterminism sources in transcript-affecting code.

The repo's load-bearing invariant is that transcripts and solve digests
are bit-identical across thread counts, mailbox layouts, scheduling
modes, and ingestion paths. This lint makes the *sources* of
nondeterminism mechanically checkable instead of relying on reviewer
vigilance: it walks the C++ translation units under src/ and reports any

  * wall-clock or cycle-counter reads (std::chrono clocks, clock_gettime,
    __rdtsc, inline asm) -- rule `wall-clock` / `tsc-or-asm`,
  * randomness sources (std::random_device, rand/srand, the standard
    engines) -- rule `random`,
  * hash-ordered containers whose iteration order is
    implementation-defined (std::unordered_*) -- rule `unordered-container`,
  * pointer-identity ordering or hashing (uintptr_t round-trips,
    std::hash over pointer types) -- rule `pointer-identity`,
  * thread-identity reads (this_thread::get_id, pthread_self) -- rule
    `thread-id`,
  * observability state escaping the serving layer (obs:: uses or
    #include "obs/..." in files outside src/obs, src/server, src/router,
    src/api/batch*) -- rule `obs-boundary`. Spans and metrics carry
    wall-clock timestamps and random ids; if they reached the solver
    core they could leak into Solutions, transcripts, or digests and
    break the bit-identical contract, so the boundary is enforced by
    path, not by review,
  * libm transcendental calls (log, log2, log10, log1p, exp, exp2, expm1,
    pow, cbrt, hypot, and the trigonometric and hyperbolic functions) in
    src/core, src/congest and src/baselines, except in the audited unit
    src/core/params.cpp -- rule `transcendental`. These functions are not
    correctly rounded, so their last ulp may differ across libm builds
    and CPUs; a solver that computes them in its per-round arithmetic
    could produce different transcripts on different hosts. params.cpp
    derives the run's parameters (beta, z, the Theorem 9 alpha table)
    from them once; sqrt and ldexp are exact or correctly rounded and
    stay allowed everywhere.

Audited exceptions are allowlisted in the source with an annotation
comment carrying a real justification (>= {min_reason} characters):

    // [[hypercover::nondet_ok: wall_ms is reporting-only and excluded
    //    from the solve digest by the bit-identical contract.]]

The annotation suppresses findings on its own line and on the line
directly below it, so it works both trailing and as a lead-in comment.
An annotation with an empty or too-short reason is itself a finding
(`bad-annotation`): the allowlist must be an audit trail, not a mute
button.

Engines: the default engine strips comments, string and character
literals with a small lexer and applies the rules to what remains. With
--engine=clang the same rules run over a libclang token stream instead
(identical semantics, exact lexing); when clang.cindex is not importable
the script falls back to the regex engine with a note, so the lint works
in minimal containers and uses the real lexer where one is installed.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.

Usage:
  scripts/determinism_lint.py                 # lint src/ (repo-relative)
  scripts/determinism_lint.py src/congest     # lint specific roots
  scripts/determinism_lint.py --self-test     # run the lint_corpus suite
"""

import argparse
import pathlib
import re
import sys

MIN_REASON = 10
__doc__ = __doc__.format(min_reason=MIN_REASON)

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".h", ".hh", ".cxx"}

ANNOTATION_RE = re.compile(r"\[\[hypercover::nondet_ok:(?P<reason>[^\]]*)\]\]")

# (rule id, compiled pattern, skip preprocessor lines, message).
RULES = [
    (
        "wall-clock",
        re.compile(
            r"\b(?:steady_clock|system_clock|high_resolution_clock"
            r"|utc_clock|file_clock|clock_gettime|gettimeofday"
            r"|timespec_get|localtime|gmtime|strftime|mktime)\b"),
        False,
        "wall-clock reads are nondeterministic; timing belongs in "
        "congest/cycles.hpp or in reporting-only fields",
    ),
    (
        "tsc-or-asm",
        re.compile(r"__rdtscp?\b|__builtin_readcyclecounter|\basm\b|__asm__"),
        False,
        "cycle counters / inline asm are nondeterministic or "
        "platform-defined; the audited wrapper is congest/cycles.hpp",
    ),
    (
        "random",
        re.compile(
            r"\brandom_device\b|\bdefault_random_engine\b"
            r"|\bmt19937(?:_64)?\b|\bminstd_rand0?\b|\bknuth_b\b"
            r"|(?<![\w:.>])s?rand\s*\("),
        False,
        "unseeded/global randomness; use util::Xoshiro256StarStar with an "
        "explicit seed so every run is reproducible",
    ),
    (
        "unordered-container",
        re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
        True,  # the #include line is not the audit point; the use is
        "iteration order of hash containers is implementation-defined; "
        "prove the order never reaches a transcript/digest (annotate) or "
        "use an ordered/indexed container",
    ),
    (
        "pointer-identity",
        re.compile(r"std::hash<[^<>]*\*|\bu?intptr_t\b"),
        False,
        "pointer values differ across runs (ASLR, allocator state); "
        "never order, hash, or emit them",
    ),
    (
        "thread-id",
        re.compile(r"\bthis_thread::get_id\b|\bpthread_self\b|\bgettid\b"),
        False,
        "thread identity varies run to run; key work off deterministic "
        "shard/agent ids instead",
    ),
]

RULE_IDS = {rule_id for rule_id, _, _, _ in RULES} | {"bad-annotation",
                                                     "obs-boundary",
                                                     "transcendental"}

# Path-aware rule: observability state stays in the serving layer. A
# file whose path contains one of these prefixes may use obs::; any
# other file may not. The include pattern is matched against the RAW
# line (the lexer blanks the quoted header name), gated on the line
# being a preprocessor directive; the code pattern runs on stripped
# lines like every other rule, so comments and strings stay inert.
OBS_ALLOWED_PREFIXES = ("src/obs/", "src/server/", "src/router/",
                        "src/api/batch")
OBS_CODE_RE = re.compile(r"\bobs::")
OBS_INCLUDE_RE = re.compile(r'#\s*include\s*"obs/')
OBS_MESSAGE = (
    "observability spans/metrics carry wall-clock time and random ids; "
    "obs:: must stay out of the deterministic core (allowed only under "
    + ", ".join(OBS_ALLOWED_PREFIXES) + ")")


def obs_allowed_path(path):
    s = str(path).replace("\\", "/")
    return any(prefix in s for prefix in OBS_ALLOWED_PREFIXES)


# Path-aware rule: libm transcendentals stay in the one audited unit. A
# call is a name from the list, optionally std::-qualified and optionally
# with the float/long-double suffix, followed by '('; member calls
# (x.log(...), p->exp(...)) and longer identifiers (ipow, expect) do not
# match.
TRANSCENDENTAL_PREFIXES = ("src/core/", "src/congest/", "src/baselines/")
TRANSCENDENTAL_AUDITED = "src/core/params.cpp"
TRANSCENDENTAL_RE = re.compile(
    r"(?<![\w.>])(?:std::)?"
    r"(?:log|log2|log10|log1p|exp|exp2|expm1|pow|cbrt|hypot|atan2"
    r"|a?(?:sin|cos|tan)h?)[fl]?\s*\(")
TRANSCENDENTAL_MESSAGE = (
    "libm transcendentals are not correctly rounded and may differ across "
    "libm builds and CPUs; compute them in the audited unit "
    "src/core/params.cpp (sqrt and ldexp are exact and allowed)")


def transcendental_checked_path(path):
    s = str(path).replace("\\", "/")
    return (any(prefix in s for prefix in TRANSCENDENTAL_PREFIXES)
            and not s.endswith(TRANSCENDENTAL_AUDITED))


def strip_comments_and_literals(text):
    """Return text with comments, string and char literals blanked out.

    Newlines are preserved so line numbers survive. Handles //, /* */,
    "..." and '...' with escapes, and R"delim(...)delim" raw strings.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2 if i + 1 < n else (n - i)
        elif c == "R" and nxt == '"':
            # Raw string literal: R"delim( ... )delim"
            m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[i:])
            if m is None:
                out.append(c)
                i += 1
                continue
            closer = ")" + m.group(1) + '"'
            end = text.find(closer, i + m.end())
            end = n if end < 0 else end + len(closer)
            out.extend("\n" for ch in text[i:end] if ch == "\n")
            i = end
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; bail at line end
                    break
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def regex_engine_lines(text):
    """Default engine: lexer-stripped source, split into lines."""
    return strip_comments_and_literals(text).split("\n")


def clang_engine_lines(text, path):
    """libclang engine: rebuild per-line code text from the token stream,
    excluding comments and literals. Same downstream rule matching."""
    import clang.cindex as cindex  # caller guards the import

    index = cindex.Index.create()
    tu = index.parse(str(path), args=["-std=c++20", "-fsyntax-only"],
                     unsaved_files=[(str(path), text)],
                     options=cindex.TranslationUnit.PARSE_INCOMPLETE)
    lines = [""] * (text.count("\n") + 2)
    for tok in tu.get_tokens(extent=tu.cursor.extent):
        if tok.kind in (cindex.TokenKind.COMMENT, cindex.TokenKind.LITERAL):
            continue
        row = tok.location.line - 1
        if 0 <= row < len(lines):
            lines[row] += ("" if not lines[row] else " ") + tok.spelling
    return lines


def collect_annotations(text):
    """Line numbers (0-based) suppressed by a valid annotation, plus
    findings for annotations whose reason is too short to be an audit.
    The reason may wrap across comment lines ([^\\]]* matches newlines);
    every line the annotation touches plus the one below it is covered."""
    suppressed = set()
    bad = []
    for m in ANNOTATION_RE.finditer(text):
        reason = " ".join(m.group("reason").replace("//", " ").split())
        start_line = text.count("\n", 0, m.start())
        end_line = text.count("\n", 0, m.end())
        if len(reason) < MIN_REASON:
            bad.append((start_line, "bad-annotation",
                        "annotation reason is too short to be an audit "
                        f"(need >= {MIN_REASON} chars): '{reason}'"))
        else:
            suppressed.update(range(start_line, end_line + 2))
    return suppressed, bad


def scan_text(text, path="<memory>", engine="regex"):
    """Lint one translation unit. Returns [(line_idx, rule_id, message)]."""
    if engine == "clang":
        code_lines = clang_engine_lines(text, path)
    else:
        code_lines = regex_engine_lines(text)
    suppressed, findings = collect_annotations(text)
    obs_allowed = obs_allowed_path(path)
    transcendental_checked = transcendental_checked_path(path)
    raw_lines = text.split("\n")
    for idx, line in enumerate(code_lines):
        if not line:
            continue
        is_preprocessor = line.lstrip().startswith("#")
        for rule_id, pattern, skip_pp, message in RULES:
            if skip_pp and is_preprocessor:
                continue
            m = pattern.search(line)
            if m is None:
                continue
            if idx in suppressed:
                continue
            findings.append((idx, rule_id, f"'{m.group(0).strip()}' - {message}"))
        if not obs_allowed and idx not in suppressed:
            m = OBS_CODE_RE.search(line)
            if m is None and is_preprocessor and idx < len(raw_lines):
                m = OBS_INCLUDE_RE.search(raw_lines[idx])
            if m is not None:
                findings.append(
                    (idx, "obs-boundary",
                     f"'{m.group(0).strip()}' - {OBS_MESSAGE}"))
        if transcendental_checked and idx not in suppressed:
            m = TRANSCENDENTAL_RE.search(line)
            if m is not None:
                findings.append(
                    (idx, "transcendental",
                     f"'{m.group(0).strip()}' - {TRANSCENDENTAL_MESSAGE}"))
    findings.sort()
    return findings


def iter_source_files(roots):
    for root in roots:
        p = pathlib.Path(root)
        if p.is_file():
            yield p
        elif p.is_dir():
            yield from sorted(q for q in p.rglob("*")
                              if q.suffix in SOURCE_SUFFIXES and q.is_file())
        else:
            raise SystemExit(f"error: no such path: {root}")


def lint_paths(roots, engine):
    findings = []
    for path in iter_source_files(roots):
        text = path.read_text(encoding="utf-8", errors="replace")
        for idx, rule_id, message in scan_text(text, path, engine):
            findings.append((str(path), idx + 1, rule_id, message))
    return findings


# --- self-test over the committed snippet corpus ---------------------------

EXPECT_RE = re.compile(r"LINT-EXPECT:\s*(?P<rules>[a-z-]+(?:\s*,\s*[a-z-]+)*)")
# A corpus file for a path-aware rule names the repository path it stands
# for; it is linted as if it lived there.
AS_PATH_RE = re.compile(r"LINT-AS-PATH:\s*(?P<path>\S+)")


def self_test(engine):
    """Run the lint over scripts/lint_corpus and require exact agreement
    with the LINT-EXPECT markers: every marked line must produce exactly
    the named findings, and nothing unmarked may produce any. A file
    with a LINT-AS-PATH marker is linted as if it lived at that path."""
    corpus = pathlib.Path(__file__).resolve().parent / "lint_corpus"
    files = sorted(corpus.glob("*.cpp")) + sorted(corpus.glob("*.hpp"))
    if not files:
        print(f"self-test: no corpus files under {corpus}", file=sys.stderr)
        return 2
    failures = []
    checked = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        expected = set()
        for idx, line in enumerate(text.split("\n")):
            m = EXPECT_RE.search(line)
            if m is None:
                continue
            for rule in re.split(r"\s*,\s*", m.group("rules")):
                if rule not in RULE_IDS:
                    failures.append(f"{path.name}:{idx + 1}: unknown rule "
                                    f"'{rule}' in LINT-EXPECT marker")
                    continue
                expected.add((idx, rule))
        as_path = AS_PATH_RE.search(text)
        scan_path = as_path.group("path") if as_path else path
        actual = {(idx, rule)
                  for idx, rule, _ in scan_text(text, scan_path, engine)}
        for idx, rule in sorted(expected - actual):
            failures.append(f"{path.name}:{idx + 1}: expected a [{rule}] "
                            "finding, got none")
        for idx, rule in sorted(actual - expected):
            failures.append(f"{path.name}:{idx + 1}: unexpected [{rule}] "
                            "finding")
        checked += len(expected)
    # The stripping lexer itself: patterns inside comments/strings are
    # inert, and a valid annotation suppresses same-line and next-line.
    inline_cases = [
        ("// steady_clock in a comment\n", 0),
        ('const char* s = "random_device";\n', 0),
        ('auto r = R"(rand( unordered_map)";\n', 0),
        ("auto t = std::chrono::steady_clock::now();\n", 1),
        ("// [[hypercover::nondet_ok: audited: reporting-only value]]\n"
         "auto t = std::chrono::steady_clock::now();\n", 0),
        ("auto t = steady_clock::now();  "
         "// [[hypercover::nondet_ok: audited: reporting-only value]]\n", 0),
        ("// [[hypercover::nondet_ok: x]]\nauto t = steady_clock::now();\n",
         2),  # too-short reason: bad-annotation AND the unsuppressed find
    ]
    for text, want in inline_cases:
        got = scan_text(text, engine=engine)
        if len(got) != want:
            failures.append(f"inline case {text!r}: expected {want} "
                            f"finding(s), got {got}")
        checked += 1
    # obs-boundary is path-aware: the same line is a finding in the
    # solver core and clean in the serving layer.
    obs_cases = [
        ("auto& c = obs::metrics();\n", "src/congest/algo.cpp", 1),
        ("auto& c = obs::metrics();\n", "src/server/server.cpp", 0),
        ('#include "obs/obs.hpp"\n', "src/engine/engine.cpp", 1),
        ('#include "obs/obs.hpp"\n', "src/api/batch.cpp", 0),
        ("// obs::metrics() in a comment is inert\n",
         "src/engine/engine.cpp", 0),
        ('const char* s = "obs::metrics";\n', "src/engine/engine.cpp", 0),
        ("// [[hypercover::nondet_ok: audited: reporting-only hook, "
         "excluded from the digest]]\n"
         "auto& c = obs::metrics();\n", "src/engine/engine.cpp", 0),
    ]
    for text, path, want in obs_cases:
        got = scan_text(text, path=path, engine=engine)
        if len(got) != want:
            failures.append(f"obs case {text!r} at {path}: expected {want} "
                            f"finding(s), got {got}")
        checked += 1
    # transcendental is path-aware too: the solver core, the engine and
    # the baselines are checked, except the audited parameter unit.
    call = "double a = std::log2(d);\n"
    transcendental_cases = [
        (call, "src/core/protocol.hpp", 1),
        (call, "src/congest/engine.hpp", 1),
        (call, "src/baselines/kmw.cpp", 1),
        (call, "src/core/params.cpp", 0),
        (call, "src/ilp/simulation.cpp", 0),
        ("double r = std::sqrt(x) + std::ldexp(x, -3);\n",
         "src/core/mwhvc.cpp", 0),
    ]
    for text, path, want in transcendental_cases:
        got = scan_text(text, path=path, engine=engine)
        if len(got) != want:
            failures.append(f"transcendental case {text!r} at {path}: "
                            f"expected {want} finding(s), got {got}")
        checked += 1
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(files)} corpus files, {checked} checks, "
          f"engine={engine}", file=sys.stderr)
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("roots", nargs="*", metavar="PATH",
                    help="files or directories to lint (default: src/ "
                         "relative to the repo root)")
    ap.add_argument("--engine", choices=("regex", "clang"), default="regex",
                    help="lexing engine; clang falls back to regex when "
                         "clang.cindex is not importable")
    ap.add_argument("--self-test", action="store_true",
                    help="run the lint_corpus snippet suite and exit")
    args = ap.parse_args()

    engine = args.engine
    if engine == "clang":
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            print("determinism_lint: clang.cindex not importable; "
                  "falling back to the regex engine", file=sys.stderr)
            engine = "regex"

    if args.self_test:
        return self_test(engine)

    roots = args.roots
    if not roots:
        repo = pathlib.Path(__file__).resolve().parent.parent
        roots = [str(repo / "src")]

    findings = lint_paths(roots, engine)
    for path, line, rule_id, message in findings:
        print(f"{path}:{line}: [{rule_id}] {message}")
    if findings:
        print(f"determinism_lint: {len(findings)} finding(s). Audited "
              "exceptions need a [[hypercover::nondet_ok: reason]] comment "
              "on or directly above the line.", file=sys.stderr)
        return 1
    print(f"determinism_lint: clean ({engine} engine)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
