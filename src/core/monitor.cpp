#include "core/monitor.h"

#include <algorithm>

#include "common/error.h"
#include "core/parser.h"
#include "log/index.h"
#include "obs/telemetry.h"

namespace wflog {
namespace {

EvalOptions eval_options(const MonitorOptions& options) {
  EvalOptions eo;
  eo.negation_matches_sentinels = options.negation_matches_sentinels;
  return eo;
}

}  // namespace

LogMonitor::LogMonitor(MonitorOptions options) : options_(options) {
  start_sym_ = interner_.intern(kStartActivity);
  end_sym_ = interner_.intern(kEndActivity);
}

LogMonitor::LogMonitor(const Log& log, MonitorOptions options)
    : options_(std::move(options)), interner_(log.interner()) {
  start_sym_ = interner_.intern(kStartActivity);
  end_sym_ = interner_.intern(kEndActivity);
  for (const LogRecord& l : log) {
    if (l.activity == start_sym_) {
      const Wid next = static_cast<Wid>(next_is_lsn_.size() + 1);
      if (l.wid != next) {
        throw Error("initial log wid " + std::to_string(l.wid) +
                    " is not the monitor's next wid " + std::to_string(next));
      }
    }
    next_is_lsn_[l.wid] = l.activity == end_sym_ ? 0 : l.is_lsn + 1;
  }
  next_wid_ = static_cast<Wid>(next_is_lsn_.size() + 1);
  num_records_ = log.size();
  if (options_.keep_records) records_.assign(log.begin(), log.end());
  WFLOG_TELEMETRY(t) {
    t->monitor_records_total->add(num_records_);
    t->monitor_open_instances->add(static_cast<double>(
        std::count_if(next_is_lsn_.begin(), next_is_lsn_.end(),
                      [](const auto& e) { return e.second != 0; })));
  }
}

LogMonitor::QueryId LogMonitor::add_query(std::string_view pattern_text,
                                          const EvalGuard* guard) {
  return add_query(parse_pattern(pattern_text), guard);
}

LogMonitor::QueryId LogMonitor::add_query(PatternPtr pattern,
                                          const EvalGuard* guard) {
  WFLOG_SPAN(span, "monitor.add_query");
  // Earlier appends are evaluated for the registered queries only.
  flush();
  std::vector<Found> history;
  if (num_records_ > 0) {
    if (!options_.keep_records) {
      throw Error(
          "LogMonitor: adding a query after events requires keep_records");
    }
    const Log log = Log::from_records_unchecked(records_, interner_);
    const LogIndex index(log);
    const Evaluator ev(index, eval_options(options_));
    const IncidentSet found = ev.evaluate(*pattern, nullptr, guard);
    if (guard != nullptr && guard->stopped()) {
      throw Error(std::string("LogMonitor: backfill stopped (") +
                  stop_reason_name(guard->reason()) + ")");
    }
    for (const IncidentSet::Group& g : found.groups()) {
      for (const Incident& o : g.incidents) {
        history.push_back(
            Found{index.find(g.wid, o.last())->lsn, queries_.size(), o});
      }
    }
    if (queries_.empty()) {
      // Open instances can still grow new matches: start tracking them.
      for (const LogRecord& l : records_) {
        if (next_is_lsn_.at(l.wid) == 0) continue;
        LiveInstance& live = live_[l.wid];
        live.records.push_back(l);
        live.flushed = live.records.size();
      }
    }
  }
  const QueryId id = next_query_id_++;
  queries_.push_back(Query{id, std::move(pattern)});
  match_totals_.emplace(id, 0);
  report(std::move(history));
  WFLOG_TELEMETRY(t) {
    t->monitor_queries->set(static_cast<double>(queries_.size()));
  }
  if (span.active()) {
    span.arg("backfilled", static_cast<std::uint64_t>(num_records_));
  }
  return id;
}

void LogMonitor::remove_query(QueryId id) {
  flush();
  std::erase_if(queries_, [id](const Query& q) { return q.id == id; });
  match_totals_.erase(id);
  // Undelivered matches must not surface for an id that no longer exists.
  std::erase_if(matches_, [id](const Match& m) { return m.query == id; });
  if (queries_.empty()) live_.clear();
  WFLOG_TELEMETRY(t) {
    t->monitor_queries->set(static_cast<double>(queries_.size()));
  }
}

Wid LogMonitor::begin_instance() {
  while (next_is_lsn_.contains(next_wid_)) ++next_wid_;
  const Wid wid = next_wid_;
  next_is_lsn_.emplace(wid, 1);
  WFLOG_TELEMETRY(t) { t->monitor_open_instances->add(1.0); }
  append_record(wid, start_sym_, {}, {});
  return wid;
}

void LogMonitor::record(Wid wid, std::string_view activity,
                        const NamedAttrs& in, const NamedAttrs& out) {
  const auto open = next_is_lsn_.find(wid);
  if (open == next_is_lsn_.end() || open->second == 0) {
    note_bad_event(wid, activity,
                   "instance " + std::to_string(wid) + " is not open");
    return;
  }
  if (activity == kStartActivity || activity == kEndActivity) {
    note_bad_event(wid, activity,
                   "activity name '" + std::string(activity) +
                       "' is reserved");
    return;
  }
  AttrMap in_map;
  for (const auto& [name, value] : in) {
    in_map.set(interner_.intern(name), value);
  }
  AttrMap out_map;
  for (const auto& [name, value] : out) {
    out_map.set(interner_.intern(name), value);
  }
  append_record(wid, interner_.intern(activity), std::move(in_map),
                std::move(out_map));
}

void LogMonitor::end_instance(Wid wid) {
  auto it = next_is_lsn_.find(wid);
  if (it == next_is_lsn_.end() || it->second == 0) {
    note_bad_event(wid, kEndActivity,
                   "instance " + std::to_string(wid) + " is not open");
    return;
  }
  append_record(wid, end_sym_, {}, {});
  it->second = 0;  // completed; the next flush releases its records
  WFLOG_TELEMETRY(t) { t->monitor_open_instances->add(-1.0); }
}

void LogMonitor::note_bad_event(Wid wid, std::string_view activity,
                                std::string reason) {
  ++num_bad_events_;
  WFLOG_TELEMETRY(t) { t->monitor_bad_events_total->inc(); }
  BadEvent event{wid, std::string(activity), std::move(reason)};
  if (options_.on_bad_event) options_.on_bad_event(event);
  switch (options_.bad_event_policy) {
    case BadEventPolicy::kReject:
      throw Error("LogMonitor: " + event.reason);
    case BadEventPolicy::kSkip:
      break;
    case BadEventPolicy::kQuarantine:
      // Bounded ring: retain only the newest quarantine_capacity events so
      // a misbehaving producer cannot grow this without bound.
      if (options_.quarantine_capacity == 0) {
        ++num_quarantine_dropped_;
        break;
      }
      while (quarantined_.size() >= options_.quarantine_capacity) {
        quarantined_.pop_front();
        ++num_quarantine_dropped_;
      }
      quarantined_.push_back(std::move(event));
      break;
  }
}

void LogMonitor::append_record(Wid wid, Symbol activity, AttrMap in,
                               AttrMap out) {
  LogRecord l;
  l.lsn = static_cast<Lsn>(num_records_ + 1);
  l.wid = wid;
  l.is_lsn = next_is_lsn_.at(wid)++;
  l.activity = activity;
  l.in = std::move(in);
  l.out = std::move(out);
  ++num_records_;
  WFLOG_TELEMETRY(t) { t->monitor_records_total->inc(); }

  if (!queries_.empty()) {
    LiveInstance& live = live_[wid];
    if (live.flushed == live.records.size()) touched_.push_back(wid);
    live.records.push_back(l);
  }
  if (options_.keep_records) records_.push_back(std::move(l));
}

void LogMonitor::flush() const {
  if (touched_.empty()) return;
  std::vector<LogRecord> records;
  for (const Wid wid : touched_) {
    const std::vector<LogRecord>& r = live_.at(wid).records;
    records.insert(records.end(), r.begin(), r.end());
  }
  const Log log = Log::from_records_unchecked(std::move(records), interner_);
  const LogIndex index(log);
  const Evaluator ev(index, eval_options(options_));

  std::vector<Found> found;
  for (const Wid wid : touched_) {
    const auto live = live_.find(wid);
    const std::size_t flushed = live->second.flushed;
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      for (Incident& o : ev.evaluate_instance(*queries_[q].pattern, wid)) {
        if (o.last() <= flushed) continue;  // reported by an earlier flush
        const Lsn lsn = index.find(wid, o.last())->lsn;
        found.push_back(Found{lsn, q, std::move(o)});
      }
    }
    live->second.flushed = live->second.records.size();
    if (next_is_lsn_.at(wid) == 0) live_.erase(live);  // completed
  }
  touched_.clear();
  report(std::move(found));
}

void LogMonitor::report(std::vector<Found> found) const {
  // Each (instance, query) run is already canonical; a stable sort keeps
  // that order among matches completed by the same record.
  std::stable_sort(found.begin(), found.end(),
                   [](const Found& a, const Found& b) {
                     return a.lsn != b.lsn ? a.lsn < b.lsn : a.query < b.query;
                   });
  for (Found& f : found) {
    const QueryId id = queries_[f.query].id;
    matches_.push_back(Match{id, std::move(f.incident)});
    ++match_totals_[id];
  }
  WFLOG_TELEMETRY(t) { t->monitor_matches_total->add(found.size()); }
}

std::vector<LogMonitor::Match> LogMonitor::drain() {
  flush();
  std::vector<Match> out;
  out.swap(matches_);
  return out;
}

std::vector<LogMonitor::Match> LogMonitor::drain(QueryId id) {
  flush();
  std::vector<Match> out;
  std::vector<Match> rest;
  rest.reserve(matches_.size());
  for (Match& m : matches_) {
    (m.query == id ? out : rest).push_back(std::move(m));
  }
  matches_ = std::move(rest);
  return out;
}

LogMonitor::MemoryStats LogMonitor::memory_stats() const noexcept {
  MemoryStats s;
  s.tracked_totals = match_totals_.size();
  s.pending_matches = matches_.size();
  return s;
}

std::size_t LogMonitor::total_matches(QueryId id) const {
  flush();
  auto it = match_totals_.find(id);
  return it == match_totals_.end() ? 0 : it->second;
}

Log LogMonitor::snapshot() const {
  if (!options_.keep_records) {
    throw Error("LogMonitor: snapshot requires keep_records");
  }
  return Log::from_records(records_, interner_);
}

}  // namespace wflog
