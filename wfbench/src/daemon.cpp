#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"

namespace wfbench {

namespace server = wflog::server;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kStartTimeoutMs = 60000;

/// wfqd runs with its default flags except --shards 1. At the default
/// (--shards 0 = one shard per core) two queries evaluating at once can
/// livelock the engine's ShardPool: drain_job only unqueues an exhausted
/// job that is at the front of the queue, so an exhausted job left behind
/// a finished one makes worker_loop spin forever holding the pool mutex.
/// Every workload here has concurrent queries, so until that is fixed the
/// benchmark measures the serial evaluator.
const char* const kShardFlags[] = {"--shards", "1"};

}  // namespace

Daemon::Daemon(std::filesystem::path binary, std::filesystem::path store,
               std::filesystem::path log_file)
    : binary_(std::move(binary)),
      store_(std::move(store)),
      log_file_(std::move(log_file)) {}

Daemon::~Daemon() { kill_and_reap(); }

double Daemon::start() {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  const std::string bin = binary_.string();
  const std::string store = store_.string();
  const std::string log = log_file_.string();

  const auto t0 = Clock::now();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // wfqd must not outlive the benchmark, even one killed by a timeout.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(pipe_fds[1], STDOUT_FILENO);
    const int err = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (err >= 0) dup2(err, STDERR_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    std::vector<char*> argv = {const_cast<char*>(bin.c_str()),
                               const_cast<char*>("--store"),
                               const_cast<char*>(store.c_str()),
                               const_cast<char*>("--port"),
                               const_cast<char*>("0"),
                               const_cast<char*>(kShardFlags[0]),
                               const_cast<char*>(kShardFlags[1]), nullptr};
    execv(bin.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];

  // "wfqd listening on <port> (<n> records)" is printed once the service
  // is built and the listener is up.
  std::string line;
  while (line.find('\n') == std::string::npos) {
    pollfd p{out_fd_, POLLIN, 0};
    const int left =
        kStartTimeoutMs -
        static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                             Clock::now() - t0)
                             .count());
    if (left <= 0 || poll(&p, 1, left) <= 0) {
      kill_and_reap();
      throw std::runtime_error("wfqd did not start in time");
    }
    char buf[256];
    const ssize_t n = read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      kill_and_reap();
      throw std::runtime_error("wfqd exited during start-up (see " + log +
                               ")");
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::string key = "listening on ";
  const auto at = line.find(key);
  if (at == std::string::npos) {
    kill_and_reap();
    throw std::runtime_error("unexpected wfqd banner: " + line);
  }
  port_ = static_cast<std::uint16_t>(std::stoi(line.substr(at + key.size())));

  server::ClientOptions co;
  co.timeout_ms = 5000;
  co.backoff.max_retries = 0;
  for (;;) {
    try {
      server::HttpClient c("127.0.0.1", port_, co);
      const server::ClientResponse r = c.get("/healthz");
      if (r.status == 200 && r.body == "ok\n") break;
    } catch (const std::exception&) {
    }
    if (Clock::now() - t0 > std::chrono::milliseconds(kStartTimeoutMs)) {
      kill_and_reap();
      throw std::runtime_error("wfqd /healthz never answered ok");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM not found for wfqd");
}

server::JsonValue Daemon::stats() const {
  server::HttpClient c("127.0.0.1", port_, 30000);
  const server::ClientResponse r = c.get("/stats");
  if (r.status != 200) throw std::runtime_error("GET /stats failed");
  return server::parse_json(r.body);
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  int status = 0;
  const pid_t pid = pid_;
  const auto t0 = Clock::now();
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (Clock::now() - t0 > std::chrono::seconds(30)) {
      kill_and_reap();
      throw std::runtime_error("wfqd did not drain within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("wfqd exited uncleanly (status " +
                             std::to_string(status) + ")");
  }
}

void Daemon::kill_and_reap() noexcept {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
}

}  // namespace wfbench
