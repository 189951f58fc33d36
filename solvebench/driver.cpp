// The solve-path benchmark driver.
//
//   solvebench --workload <engine-large|serve-cold|serve-hot> --seed <n>
//              --seconds <s> --trace <0|1> --served <hypercover_served>
//              --router <hypercover_router> [--trace-out <file>]
//
// Runs from a scratch directory (instances, sockets and the trace are
// written to the current directory). Prints the per-layer table (traced
// run) and, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics, traced runs the
// per-layer metrics. Exit code 0 once a result is printed, 2 on a usage
// error or a run that could not finish.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <unistd.h>

#include "checker.hpp"
#include "common.hpp"
#include "fleet.hpp"

namespace {

using namespace solvebench;

extern "C" void on_signal(int sig) {
  kill_all_children();
  ::_exit(128 + sig);
}

bool parse(int argc, char** argv, RunOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--served") {
      opt.served_bin = value;
    } else if (key == "--router") {
      opt.router_bin = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      return false;
    }
  }
  if (opt.trace_out.empty()) opt.trace_out = "trace.json";
  return !opt.workload.empty() && opt.seconds > 0 &&
         !opt.served_bin.empty() && !opt.router_bin.empty();
}

void print_json(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  opt.t0 = Clock::now();
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGHUP, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  try {
    if (!parse(argc, argv, opt)) {
      std::cerr << "usage: solvebench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> --served <bin> --router <bin>\n";
      return 2;
    }
    Report report;
    if (opt.workload == "engine-large") {
      run_engine_large(opt, report);
    } else if (opt.workload == "serve-cold") {
      run_serve(opt, /*hot=*/false, report);
    } else if (opt.workload == "serve-hot") {
      run_serve(opt, /*hot=*/true, report);
    } else {
      std::cerr << "unknown workload " << opt.workload << "\n";
      return 2;
    }
    // The checker must reject every corrupted answer, or its verdicts
    // above mean nothing.
    if (std::string err = checker_self_test(); !err.empty()) {
      report.fail_check("checker self-test: " + err);
    }
    for (const std::string& p : report.problems) {
      std::cerr << "check failed: " << p << "\n";
    }
    if (opt.trace) {
      std::printf("%-30s %16s  %s\n", "layer metric", "value", "unit");
      for (const auto& [name, vu] : report.metrics) {
        std::printf("%-30s %16.6g  %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
      }
    }
    print_json(report);
    return 0;
  } catch (const std::exception& ex) {
    kill_all_children();
    std::cerr << "solvebench: " << ex.what() << "\n";
    return 2;
  }
}
