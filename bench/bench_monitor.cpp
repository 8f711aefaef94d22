// Extension bench — continuous monitoring (core/monitor.h): event
// throughput as a function of registered-query count, and what the
// monitor's lazy re-evaluation costs next to the alternatives.
//
// The monitor re-evaluates each instance that grew since the last drain,
// once per query. Per event, that costs about the length of the grown
// instances, so the rows cover the shapes that matter:
//   * Replay / Small: a whole clinic feed, drained once at the end;
//     ReevaluatePerRecordSmall is the naive alternative (a whole-log batch
//     evaluation after every record).
//   * LongInstance: ONE instance of n records under `a -> b`, drained
//     after every record (re-evaluation is quadratic in n here) or once.
//   * WfqdShaped: what wfqd does — a 25k-record procurement history, one
//     standing query registered late, then 8-event ingests, each drained.
//   * LateQueryBackfill: registering that query over the same history.

#include <benchmark/benchmark.h>

#include <map>

#include "core/engine.h"
#include "core/monitor.h"
#include "workflow/clinic.h"
#include "workflow/procurement.h"

namespace {

using namespace wflog;

const Log& feed_log() {
  static const Log log = clinic_log(100, 0x707);
  return log;
}

/// Feeds every event of `log` to `monitor`, in lsn order.
void replay(LogMonitor& monitor, const Log& log) {
  std::map<Wid, Wid> wid_map;
  for (const LogRecord& l : log) {
    if (l.activity == log.start_symbol()) {
      wid_map[l.wid] = monitor.begin_instance();
    } else if (l.activity == log.end_symbol()) {
      monitor.end_instance(wid_map.at(l.wid));
    } else {
      monitor.record(wid_map.at(l.wid), log.activity_name(l.activity));
    }
  }
}

/// Reports the mean wall time per monitor event next to the per-iteration
/// time.
void per_event(benchmark::State& state, double events_per_iteration) {
  state.counters["s_per_event"] = benchmark::Counter(
      events_per_iteration, benchmark::Counter::kIsIterationInvariantRate |
                                benchmark::Counter::kInvert);
}

const char* kRules[] = {
    "GetReimburse -> UpdateRefer",
    "GetReimburse -> GetReimburse",
    "UpdateRefer . GetReimburse",
    "SeeDoctor -> (UpdateRefer -> GetReimburse)",
    "(CompleteRefer | TerminateRefer)",
    "GetRefer . CheckIn",
    "PayTreatment -> TakeTreatment",
    "SeeDoctor & UpdateRefer",
};

void BM_MonitorReplay(benchmark::State& state) {
  const auto nqueries = static_cast<std::size_t>(state.range(0));
  const Log& log = feed_log();
  for (auto _ : state) {
    MonitorOptions opts;
    opts.keep_records = false;
    LogMonitor monitor(opts);
    for (std::size_t i = 0; i < nqueries; ++i) {
      monitor.add_query(kRules[i % std::size(kRules)]);
    }
    replay(monitor, log);
    benchmark::DoNotOptimize(monitor.drain());
  }
  state.counters["events"] = static_cast<double>(log.size());
  state.counters["queries"] = static_cast<double>(nqueries);
  per_event(state, static_cast<double>(log.size()));
}

// Honest per-record re-evaluation on a small feed (quadratic by design).
void BM_ReevaluatePerRecordSmall(benchmark::State& state) {
  const Log small = clinic_log(10, 0x70);
  const PatternPtr p = parse_pattern("GetReimburse -> UpdateRefer");
  for (auto _ : state) {
    std::vector<LogRecord> records;
    Interner interner = small.interner();
    std::size_t matches = 0;
    for (const LogRecord& l : small) {
      records.push_back(l);
      Log snapshot = Log::from_records_unchecked(records, interner);
      const LogIndex index(snapshot);
      const Evaluator ev(index);
      matches = ev.count(*p);
    }
    benchmark::DoNotOptimize(matches);
  }
}

// The monitor on the same small feed, for the head-to-head.
void BM_MonitorSmall(benchmark::State& state) {
  const Log small = clinic_log(10, 0x70);
  for (auto _ : state) {
    MonitorOptions opts;
    opts.keep_records = false;
    LogMonitor monitor(opts);
    monitor.add_query("GetReimburse -> UpdateRefer");
    replay(monitor, small);
    benchmark::DoNotOptimize(monitor.drain());
  }
}

// One instance of range(0) records cycling through ten activities, a to j,
// under `a -> b`; range(1) = 1 drains after every record, 0 drains once at
// the end.
void BM_MonitorLongInstance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool drain_per_record = state.range(1) != 0;
  const char* kCycle[] = {"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"};
  std::size_t matches = 0;
  for (auto _ : state) {
    MonitorOptions opts;
    opts.keep_records = false;
    LogMonitor monitor(opts);
    monitor.add_query("a -> b");
    const Wid w = monitor.begin_instance();
    matches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      monitor.record(w, kCycle[i % std::size(kCycle)]);
      if (drain_per_record) matches += monitor.drain().size();
    }
    matches += monitor.drain().size();
  }
  state.counters["matches"] = static_cast<double>(matches);
  per_event(state, static_cast<double>(n));
}

/// Walks a procurement feed's events in lsn order, forever: each pass
/// begins fresh instances.
class ProcurementFeed {
 public:
  explicit ProcurementFeed(std::uint64_t seed)
      : log_(procurement_log(200, seed)) {}

  void next(LogMonitor& monitor) {
    if (pos_ == log_.size()) {
      pos_ = 0;
      wid_map_.clear();
    }
    const LogRecord& l = log_.records()[pos_++];
    if (l.activity == log_.start_symbol()) {
      wid_map_[l.wid] = monitor.begin_instance();
    } else if (l.activity == log_.end_symbol()) {
      monitor.end_instance(wid_map_.at(l.wid));
    } else {
      monitor.record(wid_map_.at(l.wid), log_.activity_name(l.activity));
    }
  }

 private:
  Log log_;
  std::size_t pos_ = 0;
  std::map<Wid, Wid> wid_map_;
};

/// wfqd's standing query in the benchmark's `monitor` workload.
constexpr const char* kStandingQuery = "ReceiveInvoice -> ReceiveGoods";

/// A monitor holding wfqd's ~25k-record procurement history.
void seed_history(LogMonitor& monitor) {
  static const Log history = procurement_log(2000, 0xBEEF);
  replay(monitor, history);
}

void BM_MonitorWfqdShaped(benchmark::State& state) {
  constexpr std::size_t kEventsPerIngest = 8;
  LogMonitor monitor;
  seed_history(monitor);
  const auto history = static_cast<double>(monitor.num_records());
  monitor.add_query(kStandingQuery);
  benchmark::DoNotOptimize(monitor.drain());
  ProcurementFeed feed(0x5EED);
  std::size_t matches = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kEventsPerIngest; ++i) feed.next(monitor);
    matches += monitor.drain().size();
  }
  state.counters["history"] = history;
  state.counters["matches"] = static_cast<double>(matches);
  per_event(state, static_cast<double>(kEventsPerIngest));
}

void BM_MonitorLateQueryBackfill(benchmark::State& state) {
  LogMonitor monitor;
  seed_history(monitor);
  for (auto _ : state) {
    const LogMonitor::QueryId id = monitor.add_query(kStandingQuery);
    benchmark::DoNotOptimize(monitor.drain());
    monitor.remove_query(id);
  }
  state.counters["history"] = static_cast<double>(monitor.num_records());
}

BENCHMARK(BM_MonitorReplay)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_ReevaluatePerRecordSmall);
BENCHMARK(BM_MonitorSmall);
BENCHMARK(BM_MonitorLongInstance)
    ->Args({1000, 1})
    ->Args({1000, 0})
    ->Args({3000, 1})
    ->Args({3000, 0})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MonitorWfqdShaped);
BENCHMARK(BM_MonitorLateQueryBackfill)->Unit(benchmark::kMillisecond);

}  // namespace
