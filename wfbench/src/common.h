#pragma once

// Shared pieces of the wfqd benchmark's load generator: options, sample
// statistics, the span log of the traced replay, the metric report, and
// small helpers for logs, hashing and directories.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"
#include "core/engine.h"
#include "log/builder.h"
#include "log/log.h"
#include "server/json.h"

namespace wfbench {

using namespace wflog;
namespace server = wflog::server;

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double ms_since(Clock::time_point start);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  fs::path wfqd;      ///< the daemon binary under test
  fs::path work_dir;  ///< scratch space for fixtures and stores
  /// Smoke-test size: a few hundred records and a handful of requests.
  bool tiny = false;
  /// Self-test hook: corrupt one expected answer so the checks must fail.
  bool inject_wrong = false;
};

/// Latency (or any) samples with the quantiles the report needs.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  void append(const Samples& other);
  std::size_t size() const noexcept { return v_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double sum() const;
  /// p95 when at least ten samples lie beyond it, else the largest
  /// quantile that keeps ten samples beyond (the report says which).
  double p95_supported(double* q_used) const;

 private:
  std::vector<double> v_;
};

/// Outcome counters shared by a workload's generator threads.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};  ///< refused, errored or wrong
  std::atomic<std::uint64_t> wrong{0};   ///< answered, but incorrectly
};

/// Durations of the traced replay's steps, by step name.
class SpanLog {
 public:
  void add(std::string_view name, double us) {
    by_name_[std::string(name)].add(us);
  }
  /// Median duration of the steps named `name`, in microseconds.
  double median_us(std::string_view name) const;

 private:
  std::map<std::string, Samples, std::less<>> by_name_;
};

/// Runs `fn`. With `spans` set, records its duration under `name` and
/// returns it in microseconds; untraced, returns 0.
template <typename Fn>
double timed(SpanLog* spans, std::string_view name, Fn&& fn) {
  if (spans == nullptr) {
    fn();
    return 0;
  }
  const auto start = Clock::now();
  fn();
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  spans->add(name, us);
  return us;
}

/// Runs `fn` on `n` threads, the calling thread being one of them, and
/// returns once all have finished (the benchmark drives wfqd with at most
/// nproc threads in total). An exception from the calling thread's share
/// is rethrown after the others are joined.
void run_on_threads(int n, const std::function<void()>& fn);

/// Collects a run's figures: the gated end-to-end slots, the per-layer
/// metrics, the workload's own metric names (query_p50_ms, ...) and
/// provenance facts, then prints the report. run.py reads the machine
/// lines of the report ("facts {...}", "named {...}" and the last line)
/// and attaches the units BENCHMARK.json gives the slots and layers.
class Report {
 public:
  explicit Report(const Options& opt);

  /// A gated end-to-end slot (a BENCHMARK.json end_to_end name) and the
  /// workload's own name for it, e.g. slot "main_p50_ms" is
  /// "query_p50_ms" on adhoc; printed as <workload>/<name>.
  void gate(const std::string& slot, const std::string& name, double value,
            const std::string& unit, const std::string& note = "");
  /// A workload metric that no slot gates.
  void named(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  /// A per-layer metric (a BENCHMARK.json per_layer name).
  void layer(const std::string& name, double value);
  void fact(const std::string& key, server::JsonValue value);
  void fail(const std::string& why);

  bool correct() const noexcept { return failures_.empty(); }
  /// Prints the report and, last, the one-line JSON result: "correct",
  /// "attempted", "failed", "wrong" and "values" (the slots untraced,
  /// the layers traced).
  void print(std::uint64_t attempted, std::uint64_t failed,
             std::uint64_t wrong) const;

 private:
  void add_named(const std::string& name, double value,
                 const std::string& unit, const std::string& note,
                 const std::string& gate);

  const Options& opt_;
  std::map<std::string, double> slots_;
  std::map<std::string, double> layers_;
  server::JsonValue named_{server::JsonMembers{}};
  server::JsonValue facts_{server::JsonMembers{}};
  std::vector<std::string> failures_;
};

// ---- logs -----------------------------------------------------------------

/// Feeds `log` event by event: START -> on_begin(sim wid), END ->
/// on_end(sim wid), anything else -> on_record(sim wid, activity, in, out).
struct EventSink {
  std::function<void(Wid)> on_begin;
  std::function<void(Wid, std::string_view, const NamedAttrs&,
                     const NamedAttrs&)>
      on_record;
  std::function<void(Wid)> on_end;
};
void for_each_event(const Log& log, const EventSink& sink);

/// One /ingest event object for record `l` of `log`, naming `wid`.
server::JsonValue ingest_event(const Log& log, const LogRecord& l, Wid wid);

/// The QueryOptions the benchmark starts wfqd with.
QueryOptions daemon_query_options();

// ---- answers ----------------------------------------------------------------

/// The rendered-incident fingerprint of a /query answer: the total plus a
/// hash of (wid, positions) over the first `limit` incidents, exactly the
/// ones wfqd renders.
struct Answer {
  std::uint64_t total = 0;
  std::uint64_t hash = 0;
  bool operator==(const Answer&) const = default;
};
Answer answer_of(const QueryResult& r, std::size_t limit);
/// Same fingerprint from a rendered /query (or /batch slot) JSON object.
/// Throws when the object is an error slot or malformed.
Answer answer_of(const server::JsonValue& rendered);

/// Renders a QueryResult as wfqd's /query handler does (same shape, same
/// render limit), so the traced replay serializes what the server does.
server::JsonValue render_like_server(const std::string& query_text,
                                     const QueryResult& r, std::size_t limit);

inline constexpr std::size_t kServerRenderLimit = 1000;  // wfqd default

/// FNV-1a digest of what a run sends wfqd, recorded so that two runs can
/// be shown to have used the same inputs: the fixture's records (as
/// /ingest events) and the seeded request bodies.
class InputDigest {
 public:
  void add(std::string_view bytes);
  void add(const Log& log);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---- files ------------------------------------------------------------------

std::uintmax_t dir_bytes(const fs::path& dir);
/// FNV-1a over every file's relative name and bytes, in name order.
std::string dir_hash(const fs::path& dir);
void copy_dir(const fs::path& from, const fs::path& to);

/// The HTTP/1.1 request bytes HttpClient sends for a POST to wfqd.
std::string request_bytes(const std::string& target, const std::string& body);

}  // namespace wfbench
