#include "fleet.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "server/client.hpp"

namespace solvebench {

namespace {

// Every live child pid, for the signal handler (which may not lock).
constexpr std::size_t kMaxChildren = 16;
std::array<std::atomic<pid_t>, kMaxChildren> g_children{};

void remember(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  throw std::runtime_error("too many fleet processes");
}

void forget(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t mine = pid;
    if (slot.compare_exchange_strong(mine, 0)) return;
  }
}

pid_t spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Dies with the driver, however the driver ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  remember(pid);
  return pid;
}

void wait_ready(const std::string& address, pid_t pid) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    try {
      hypercover::server::Client c;
      c.connect(address, 5000);
      return;
    } catch (const std::exception&) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        forget(pid);
        throw std::runtime_error("fleet process for " + address +
                                 " exited during start-up");
      }
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("fleet process for " + address +
                                 " never answered");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

}  // namespace

void kill_all_children() noexcept {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

ProcSample sample_process(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string line;
  if (!std::getline(stat, line)) {
    throw std::runtime_error("cannot read " + base + "/stat");
  }
  // Fields after the parenthesised command name; utime and stime are
  // the 14th and 15th fields of the whole line.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  const double tick_ms = 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  s.cpu_ms = static_cast<double>(utime + stime) * tick_ms;
  std::ifstream statm(base + "/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  s.rss_mb = static_cast<double>(resident_pages) *
             static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  return s;
}

Fleet::Fleet(const std::string& served_bin, const std::string& router_bin,
             std::uint32_t backends) {
  try {
    std::string list;
    for (std::uint32_t i = 0; i < backends; ++i) {
      const std::string addr = "unix:b" + std::to_string(i) + ".sock";
      backends_.push_back(addr);
      list += (i == 0 ? "" : ",") + addr;
      pids_.push_back(spawn({served_bin, "--listen=" + addr, "--threads=1",
                             "--quiet"}));
    }
    router_ = "unix:router.sock";
    pids_.push_back(spawn({router_bin, "--listen=" + router_,
                           "--backends=" + list, "--quiet"}));
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      wait_ready(backends_[i], pids_[i]);
    }
    wait_ready(router_, pids_.back());
  } catch (...) {
    stop();
    throw;
  }
}

Fleet::~Fleet() { stop(); }

ProcSample Fleet::sample() const {
  ProcSample total;
  for (const pid_t pid : pids_) {
    const ProcSample s = sample_process(pid);
    total.cpu_ms += s.cpu_ms;
    total.rss_mb += s.rss_mb;
  }
  return total;
}

void Fleet::stop() {
  if (pids_.empty()) return;
  try {
    hypercover::server::Client c;
    c.connect(router_, 5000);
    c.shutdown_server();
  } catch (const std::exception&) {
    // A dead router cannot forward the shutdown; the kill below reaps.
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<pid_t> left = pids_;
  while (!left.empty() && std::chrono::steady_clock::now() < deadline) {
    for (auto it = left.begin(); it != left.end();) {
      int status = 0;
      const pid_t r = ::waitpid(*it, &status, WNOHANG);
      if (r == *it || r < 0) {  // exited now, or already reaped
        forget(*it);
        it = left.erase(it);
      } else {
        ++it;
      }
    }
    if (!left.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (const pid_t pid : left) {
    // Still our unreaped child here, so the pid cannot have been reused.
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    forget(pid);
  }
  pids_.clear();
}

}  // namespace solvebench
