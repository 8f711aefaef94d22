#include "server/flat_result.h"

#include <algorithm>

#include "core/printer.h"

namespace wflog::server {
namespace {

/// Copies everything but the incidents.
void copy_metadata(const FlatResult& from, FlatResult& to) {
  to.pattern = from.pattern;
  to.optimized = from.optimized;
  to.parse_us = from.parse_us;
  to.optimize_us = from.optimize_us;
  to.eval_us = from.eval_us;
  to.estimated_cost_before = from.estimated_cost_before;
  to.estimated_cost_after = from.estimated_cost_after;
  to.stop_reason = from.stop_reason;
  to.error = from.error;
}

/// Appends one incident's positions and closes it.
void append_incident(FlatResult& out, std::span<const IsLsn> positions) {
  out.positions.insert(out.positions.end(), positions.begin(),
                       positions.end());
  out.incident_offsets.push_back(out.positions.size());
}

/// Heap bytes behind a string: none while it fits the inline buffer.
std::size_t heap_bytes(const std::string& s) {
  static const std::size_t kInline = std::string().capacity();
  return s.capacity() > kInline ? s.capacity() + 1 : 0;
}

}  // namespace

FlatResult FlatResult::from(const QueryResult& r) {
  FlatResult out;
  if (r.parsed != nullptr) out.pattern = to_text(*r.parsed);
  if (r.executed != nullptr) out.optimized = to_text(*r.executed);
  out.parse_us = r.parse_us;
  out.optimize_us = r.optimize_us;
  out.eval_us = r.eval_us;
  out.estimated_cost_before = r.estimated_cost_before;
  out.estimated_cost_after = r.estimated_cost_after;
  out.stop_reason = r.stop_reason;
  out.error = r.error;

  const auto& groups = r.incidents.groups();
  std::size_t incidents = 0;
  std::size_t positions = 0;
  for (const IncidentSet::Group& g : groups) {
    incidents += g.incidents.size();
    for (const Incident& o : g.incidents) positions += o.size();
  }
  out.wids.reserve(groups.size());
  out.group_offsets.reserve(groups.size() + 1);
  out.incident_offsets.reserve(incidents + 1);
  out.positions.reserve(positions);
  out.group_offsets.push_back(0);
  out.incident_offsets.push_back(0);
  for (const IncidentSet::Group& g : groups) {
    out.wids.push_back(g.wid);
    for (const Incident& o : g.incidents) append_incident(out, o.positions());
    out.group_offsets.push_back(out.incident_offsets.size() - 1);
  }
  return out;
}

FlatResult FlatResult::merged(const FlatResult& old,
                              std::vector<const Incident*> delta) {
  std::sort(delta.begin(), delta.end(),
            [](const Incident* a, const Incident* b) { return *a < *b; });
  delta.erase(std::unique(delta.begin(), delta.end(),
                          [](const Incident* a, const Incident* b) {
                            return *a == *b;
                          }),
              delta.end());

  FlatResult out;
  copy_metadata(old, out);
  std::size_t delta_positions = 0;
  for (const Incident* o : delta) delta_positions += o->size();
  out.wids.reserve(old.num_groups() + delta.size());
  out.group_offsets.reserve(old.num_groups() + delta.size() + 1);
  out.incident_offsets.reserve(old.total() + delta.size() + 1);
  out.positions.reserve(old.positions.size() + delta_positions);
  out.group_offsets.push_back(0);
  out.incident_offsets.push_back(0);

  // Walk both sides in canonical (wid, positions) order: a group present
  // on either side is emitted once, and an incident present on both once.
  std::size_t g = 0;
  std::size_t d = 0;
  while (g < old.num_groups() || d < delta.size()) {
    Wid wid = 0;
    std::size_t i = 0;
    std::size_t end = 0;
    if (d == delta.size() ||
        (g < old.num_groups() && old.wids[g] <= delta[d]->wid())) {
      wid = old.wids[g];
      i = old.group_offsets[g];
      end = old.group_offsets[g + 1];
      ++g;
    } else {
      wid = delta[d]->wid();
    }
    for (;;) {
      const bool fresh_left = d < delta.size() && delta[d]->wid() == wid;
      if (i == end && !fresh_left) break;
      if (!fresh_left) {
        append_incident(out, old.incident(i++));
        continue;
      }
      const std::span<const IsLsn> fresh(delta[d]->positions());
      if (i == end) {
        append_incident(out, fresh);
        ++d;
        continue;
      }
      const std::span<const IsLsn> cached = old.incident(i);
      if (std::ranges::lexicographical_compare(cached, fresh)) {
        append_incident(out, cached);
        ++i;
      } else if (std::ranges::lexicographical_compare(fresh, cached)) {
        append_incident(out, fresh);
        ++d;
      } else {
        append_incident(out, cached);
        ++i;
        ++d;
      }
    }
    out.wids.push_back(wid);
    out.group_offsets.push_back(out.incident_offsets.size() - 1);
  }
  return out;
}

std::size_t FlatResult::bytes() const noexcept {
  return sizeof(FlatResult) + heap_bytes(pattern) + heap_bytes(optimized) +
         heap_bytes(error) + wids.capacity() * sizeof(Wid) +
         (group_offsets.capacity() + incident_offsets.capacity()) *
             sizeof(std::size_t) +
         positions.capacity() * sizeof(IsLsn);
}

}  // namespace wflog::server
