#pragma once

// LogMonitor: continuous (incremental) evaluation of incident patterns over
// a live, growing log.
//
// The paper's framework (Figure 2) has the workflow engine appending to the
// log while analysts query it; its related-work discussion singles out
// runtime monitoring (BP-Mon) as something warehouse pipelines do poorly.
// LogMonitor closes that loop: register patterns once, feed workflow events
// as they happen, and receive each NEW incident exactly once, at the first
// drain after its last record arrives.
//
// Algorithm. Definition 4 keeps every incident inside one workflow
// instance, and an incident depends only on the records at its own
// positions. Appending records to an instance therefore never removes an
// incident, and every new incident contains a new record. So the new
// matches of a query are exactly the incidents the engine's Evaluator
// finds in the instances appended to, minus those that end at or before
// each instance's length at the previous evaluation.
//
// The monitor applies this lazily. Appends only note which instances
// grew; drain(), matches() and total_matches() first evaluate each grown
// instance once per query, over a throwaway Log of just those instances,
// and queue the new matches ordered by the lsn of their completing
// record, then query registration order, then canonical order. That is
// the order in which the matches became complete, so it does not depend
// on how often the caller drains. A late add_query evaluates the
// retained history once and reports its matches in the same order.
//
// Draining after every record re-evaluates the whole grown instance each
// time: cheap for the short instances of real workflows, quadratic for a
// single instance of thousands of records (EXPERIMENTS.md, E13).

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/evaluator.h"
#include "core/guard.h"
#include "core/incident.h"
#include "core/pattern.h"
#include "log/builder.h"

namespace wflog {

/// What the monitor does with an event it cannot apply — an unknown or
/// already-completed wid (out-of-order delivery, lost START) or a reserved
/// activity name.
enum class BadEventPolicy {
  kReject,      // throw Error (the strict default)
  kSkip,        // drop the event, count it, keep running
  kQuarantine,  // drop it but retain it for inspection (quarantined())
};

/// One rejected/skipped/quarantined event.
struct BadEvent {
  Wid wid = 0;
  std::string activity;
  std::string reason;
};

struct MonitorOptions {
  /// Same semantics switches as batch evaluation.
  bool negation_matches_sentinels = true;
  /// Retain all observed records so snapshot() works. Disable for
  /// long-running monitors that only need matches.
  bool keep_records = true;
  /// How to treat events that cannot be applied. Under kSkip/kQuarantine
  /// the feed keeps running — one misbehaving producer cannot take down
  /// the monitor.
  BadEventPolicy bad_event_policy = BadEventPolicy::kReject;
  /// Invoked for every bad event (all policies), before it is thrown,
  /// dropped, or quarantined.
  std::function<void(const BadEvent&)> on_bad_event;
  /// Most recent quarantined events retained under kQuarantine; older ones
  /// are dropped (counted by num_quarantine_dropped()). 0 retains nothing.
  std::size_t quarantine_capacity = 1024;
};

class LogMonitor {
 public:
  using QueryId = std::size_t;

  struct Match {
    QueryId query = 0;
    Incident incident;
  };

  explicit LogMonitor(MonitorOptions options = {});
  /// Starts from an existing log as if its events had been fed in lsn
  /// order: copies its records (under keep_records) and its interner, and
  /// restores each instance's open or completed state. begin_instance()
  /// continues the wid sequence, so the log's wids must be 1..N in START
  /// order; otherwise throws Error.
  explicit LogMonitor(const Log& log, MonitorOptions options = {});

  // ----- query management ----------------------------------------------
  /// Registers a pattern. Retained history is evaluated first (requires
  /// keep_records when events were already fed), so results are identical
  /// to having registered the query before the first event; historical
  /// matches are reported immediately, in the order they became complete.
  ///
  /// A non-null `guard` bounds the backfill evaluation (deadline /
  /// incident budget / cancellation). When the guard trips, the query is
  /// not registered and Error is thrown naming the stop reason — the
  /// monitor is left exactly as before the call.
  QueryId add_query(std::string_view pattern_text,
                    const EvalGuard* guard = nullptr);
  QueryId add_query(PatternPtr pattern, const EvalGuard* guard = nullptr);
  /// Unregisters a query and releases everything it owned: the
  /// match-total entry and any of its matches still queued for drain().
  /// After removal the id never surfaces again.
  void remove_query(QueryId id);
  std::size_t num_queries() const noexcept { return queries_.size(); }

  // ----- event feed ------------------------------------------------------
  /// Starts a new workflow instance (emits its START record). Returns the
  /// fresh wid.
  Wid begin_instance();
  /// Records one activity execution for an open instance. An event naming
  /// an unknown/completed wid or a reserved activity is handled per
  /// MonitorOptions::bad_event_policy (kReject throws Error).
  void record(Wid wid, std::string_view activity, const NamedAttrs& in = {},
              const NamedAttrs& out = {});
  /// Completes an instance (emits END); the next evaluation is its last.
  /// A wid that is not open follows the bad-event policy too.
  void end_instance(Wid wid);

  // ----- results -----------------------------------------------------------
  /// Matches accumulated since the last drain(), in completion order.
  const std::vector<Match>& matches() const {
    flush();
    return matches_;
  }
  std::vector<Match> drain();
  /// Extracts only one query's pending matches, preserving their order;
  /// other queries' matches stay queued.
  std::vector<Match> drain(QueryId id);
  std::size_t total_matches(QueryId id) const;

  /// Everything observed so far, as a validated Log (keep_records only).
  Log snapshot() const;

  std::size_t num_records() const noexcept { return num_records_; }
  /// Events retained under BadEventPolicy::kQuarantine, in arrival order
  /// (at most MonitorOptions::quarantine_capacity; oldest dropped first).
  const std::deque<BadEvent>& quarantined() const noexcept {
    return quarantined_;
  }
  /// Quarantined events evicted to honor quarantine_capacity.
  std::size_t num_quarantine_dropped() const noexcept {
    return num_quarantine_dropped_;
  }
  /// Bad events seen so far (rejected, skipped, and quarantined alike).
  std::size_t num_bad_events() const noexcept { return num_bad_events_; }

  /// Internal bookkeeping sizes, exposed so tests (and leak audits) can
  /// assert that removing a query releases everything it owned.
  struct MemoryStats {
    std::size_t tracked_totals = 0;   // match_totals_ entries
    std::size_t pending_matches = 0;  // matches_ rows awaiting drain()
  };
  MemoryStats memory_stats() const noexcept;

 private:
  struct Query {
    QueryId id = 0;
    PatternPtr pattern;
  };

  /// Records of an instance that a flush may still have to evaluate: an
  /// open one, or a completed one not yet flushed since it grew.
  struct LiveInstance {
    std::vector<LogRecord> records;
    std::size_t flushed = 0;  // records already evaluated
  };

  /// A match found by an evaluation, with its completing record's lsn and
  /// its query's index in queries_ — the two keys of delivery order.
  struct Found {
    Lsn lsn = 0;
    std::size_t query = 0;
    Incident incident;
  };

  /// Evaluates every instance that grew since the last flush and queues
  /// its new matches.
  void flush() const;
  /// Queues `found` in delivery order and counts it.
  void report(std::vector<Found> found) const;
  void append_record(Wid wid, Symbol activity, AttrMap in, AttrMap out);
  /// Applies the bad-event policy: counts it, invokes the callback, then
  /// throws (kReject), drops (kSkip), or retains (kQuarantine) the event.
  void note_bad_event(Wid wid, std::string_view activity,
                      std::string reason);

  MonitorOptions options_;
  Interner interner_;
  Symbol start_sym_;
  Symbol end_sym_;
  std::vector<Query> queries_;
  // absent = never used, 0 = completed, >= 1 = open (the next is-lsn).
  std::unordered_map<Wid, IsLsn> next_is_lsn_;
  std::vector<LogRecord> records_;              // retained when keep_records
  std::deque<BadEvent> quarantined_;            // ring: capacity-capped
  std::size_t num_quarantine_dropped_ = 0;
  std::size_t num_bad_events_ = 0;
  // Flush state, mutable because matches() and total_matches() flush
  // first: a flush only does work the appends deferred. live_ is empty
  // while no query is registered.
  mutable std::unordered_map<Wid, LiveInstance> live_;
  mutable std::vector<Wid> touched_;  // live_ entries grown since the flush
  mutable std::vector<Match> matches_;
  mutable std::unordered_map<QueryId, std::size_t> match_totals_;
  Wid next_wid_ = 1;
  std::size_t num_records_ = 0;
  QueryId next_query_id_ = 1;
};

}  // namespace wflog
