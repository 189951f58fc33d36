#pragma once
// A serving fleet for the benchmark: one hypercover_router in front of
// hypercover_served backends, each a child process on a Unix socket in
// the current directory. Children get PR_SET_PDEATHSIG, so none outlives
// the driver even when it is killed; stop() drains them through the
// router's forwarded Shutdown and reaps every pid.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace solvebench {

/// CPU time (user + system) and resident size of one process, read from
/// /proc/<pid>/stat and /proc/<pid>/statm.
struct ProcSample {
  double cpu_ms = 0;
  double rss_mb = 0;
};
[[nodiscard]] ProcSample sample_process(pid_t pid);

/// Kills every child the driver started (async-signal-safe; for the
/// SIGINT/SIGTERM handler).
void kill_all_children() noexcept;

class Fleet {
 public:
  /// Starts `backends` daemons with one scheduler worker each and the
  /// default cache, then the router over them, and waits until every
  /// process answers a Hello.
  Fleet(const std::string& served_bin, const std::string& router_bin,
        std::uint32_t backends);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] const std::string& router_address() const { return router_; }
  [[nodiscard]] const std::vector<std::string>& backend_addresses() const {
    return backends_;
  }

  /// Summed over the router and every backend.
  [[nodiscard]] ProcSample sample() const;

  /// Fleet shutdown through the router; waits for every child to exit
  /// (SIGKILL after a grace period). Idempotent.
  void stop();

 private:
  std::string router_;
  std::vector<std::string> backends_;
  std::vector<pid_t> pids_;
};

}  // namespace solvebench
