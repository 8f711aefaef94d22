#pragma once

// FlatResult — the immutable flat form of one finished query result, the
// only form wfqd renders, caches and repairs.
//
// The evaluator's IncidentSet holds one heap-allocated position vector per
// incident (core/incident.h); an ad-hoc answer of a few thousand incidents
// is a few thousand small blocks. Right after QueryEngine::run/run_batch
// returns, the request thread copies the answer into four arrays in CSR
// layout and frees its QueryResult:
//
//   wids[g]                                   wid of group g
//   group_offsets[g] .. group_offsets[g+1]    incidents of group g
//   incident_offsets[i] .. incident_offsets[i+1]
//                                             positions of incident i
//   positions                                 every incident's is-lsns
//
// so a result costs the same handful of allocations whatever its size, and
// bytes() is exact: the capacities of those arrays and of the text fields.
// Groups keep the IncidentSet's ascending wid order and incidents keep the
// canonical order within each group, so rendering the flat form is
// byte-identical to rendering the IncidentSet it came from.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"

namespace wflog::server {

struct FlatResult {
  /// Metadata of the producing run. The pattern trees are kept only as
  /// their rendered text, which is all a response echoes.
  std::string pattern;    // to_text(parsed), "" when absent
  std::string optimized;  // to_text(executed), "" when absent
  double parse_us = 0;
  double optimize_us = 0;
  double eval_us = 0;
  double estimated_cost_before = 0;
  double estimated_cost_after = 0;
  StopReason stop_reason = StopReason::kNone;
  /// Non-empty for an error slot, which carries no incidents.
  std::string error;

  std::vector<Wid> wids;
  /// Both offset arrays start with 0 once a result has been built (an
  /// error slot built by hand may leave them empty).
  std::vector<std::size_t> group_offsets;     // num_groups() + 1
  std::vector<std::size_t> incident_offsets;  // total() + 1
  std::vector<IsLsn> positions;

  /// Flattens `r` (metadata and incidents).
  static FlatResult from(const QueryResult& r);

  /// `old` with `delta` merged in: the same metadata, and the union of the
  /// incident sets in canonical order. `delta` may be unsorted and hold
  /// duplicates, or incidents `old` already has; each incident appears
  /// once in the result. One linear pass over `old` after sorting `delta`.
  static FlatResult merged(const FlatResult& old,
                           std::vector<const Incident*> delta);

  std::size_t num_groups() const noexcept { return wids.size(); }
  std::size_t total() const noexcept {
    return incident_offsets.empty() ? 0 : incident_offsets.size() - 1;
  }
  bool ok() const noexcept { return error.empty(); }
  bool complete() const noexcept {
    return ok() && stop_reason == StopReason::kNone;
  }

  /// Positions of incident i (group g holds incidents
  /// [group_offsets[g], group_offsets[g + 1])).
  std::span<const IsLsn> incident(std::size_t i) const noexcept {
    return {positions.data() + incident_offsets[i],
            incident_offsets[i + 1] - incident_offsets[i]};
  }

  /// Retained bytes: the object plus the capacities of its arrays and
  /// strings. The cache's byte budget counts exactly this.
  std::size_t bytes() const noexcept;
};

}  // namespace wflog::server
