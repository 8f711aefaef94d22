#pragma once

// One wfqd process under test: spawned with its default flags plus
// --store/--port, stopped with SIGTERM, always reaped.

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "server/json.h"

namespace wfbench {

class Daemon {
 public:
  Daemon(std::filesystem::path binary, std::filesystem::path store,
         std::filesystem::path log_file);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns wfqd and waits until GET /healthz answers "ok". Returns the
  /// seconds from spawn to that answer (the set-up time users wait).
  double start();
  /// SIGTERM, then waits for a clean exit; throws if wfqd exits non-zero.
  void stop();

  std::uint16_t port() const noexcept { return port_; }
  /// wfqd's VmHWM (peak resident set) in MiB.
  double peak_rss_mb() const;
  /// GET /stats as parsed JSON.
  wflog::server::JsonValue stats() const;

 private:
  void kill_and_reap() noexcept;

  std::filesystem::path binary_;
  std::filesystem::path store_;
  std::filesystem::path log_file_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace wfbench
