#pragma once

// Seeded store fixtures and the steps every workload shares: building a
// store through the LogStore public API, timing wfqd's set-up, and the
// traced replay of that set-up in-process.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "common.h"
#include "core/monitor.h"
#include "log/store.h"
#include "daemon.h"
#include "log/log.h"

namespace wfbench {

struct Fixture {
  std::filesystem::path dir;
  std::size_t records = 0;
  std::size_t instances = 0;
  std::uintmax_t bytes = 0;
  std::string hash;  ///< dir_hash: equal hashes mean identical bytes

  server::JsonValue facts() const;
};

/// Writes `log` into a new store at `dir` through LogStore's public API
/// with fsync off and one sync() at the end, outside any timed region.
Fixture build_fixture(const Log& log, const std::filesystem::path& dir);

/// Spawns of wfqd whose median set-up time a run reports as setup_s.
inline constexpr int kSetupSpawns = 9;

/// Starts wfqd on `store` `spawns` times, keeping the last process
/// running; `setup_s` receives each spawn-to-/healthz time and
/// `ready_rss_mb`, when given, each process's peak RSS once it is ready.
std::unique_ptr<Daemon> start_measured(const Options& opt,
                                       const std::filesystem::path& store,
                                       int spawns, Samples& setup_s,
                                       Samples* ready_rss_mb = nullptr);

/// The traced replay of wfqd's set-up on `store`, `reps` times: LogStore
/// open and load, the monitor replay, the index and the engine. Leaves
/// the per-step spans in `spans`; returns the events replayed.
std::size_t trace_setup(SpanLog& spans, const std::filesystem::path& store,
                        int reps);

/// Per-layer metrics of trace_setup's spans.
void report_setup_layers(const SpanLog& spans, std::size_t events,
                         Report& report);

/// wfqd's ingest path in-process, one request at a time: HTTP and JSON
/// parse, monitor and per-append store appends, snapshot and engine
/// rebuild, response dump. With `spans` null nothing is recorded (the
/// untraced pass the tracing overhead is measured against).
class IngestReplay {
 public:
  /// Opens the store at `dir` (created when `create`) with wfqd's default
  /// per-append fsync and replays its records into a fresh monitor.
  IngestReplay(const std::filesystem::path& dir, bool create, SpanLog* spans);

  LogMonitor& monitor() noexcept { return monitor_; }
  /// The engine over the latest snapshot (null before the first ingest).
  const QueryEngine* engine() const noexcept { return engine_.get(); }
  /// Wids handed out by the last request's "begin" events.
  const std::vector<Wid>& last_wids() const noexcept { return last_wids_; }

  /// Traced time of one request's layers, in ms (all 0 untraced).
  struct Timing {
    double http = 0, json = 0, monitor = 0, store = 0, snapshot = 0,
           engine = 0, dump = 0;
    std::size_t matches = 0;  ///< monitor matches the request drained
    double total() const {
      return http + json + monitor + store + snapshot + engine + dump;
    }
  };
  /// Replays one /ingest body.
  Timing ingest(const std::string& body);
  /// Times deflate_compress on the payload of each record after the
  /// first `from` (a per-append block holds exactly one record).
  void trace_deflate(std::size_t from);

 private:
  SpanLog* spans_;
  std::optional<LogStore> store_;
  LogMonitor monitor_;
  std::optional<Log> snapshot_;
  std::unique_ptr<QueryEngine> engine_;
  std::vector<Wid> last_wids_;
};

/// Medians of each layer over `requests`, and wfqd's unaccounted time
/// against the client's median latency `client_p50_ms`: the median minus
/// the sum of layer medians (server.unaccounted.ingest_ms) and minus the
/// median traced request (server.ingest.wait_ms).
void report_ingest_layers(const SpanLog& spans,
                          const std::vector<IngestReplay::Timing>& requests,
                          double client_p50_ms, Report& report);

/// Per-layer metrics read from wfqd's /stats before and after a load.
void report_stats_layers(const server::JsonValue& before,
                         const server::JsonValue& after, Report& report);

}  // namespace wfbench
