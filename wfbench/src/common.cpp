#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/error.h"
#include "core/printer.h"

namespace wfbench {

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- Samples ------------------------------------------------------------

void Samples::append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

double Samples::sum() const {
  double total = 0;
  for (const double x : v_) total += x;
  return total;
}

double Samples::p95_supported(double* q_used) const {
  // Ten samples must lie beyond the reported percentile.
  double q = 0.95;
  if (!v_.empty()) {
    const double n = static_cast<double>(v_.size());
    q = std::min(q, std::max(0.5, (n - 10.0) / n));
  }
  if (q_used != nullptr) *q_used = q;
  return quantile(q);
}

void run_on_threads(int n, const std::function<void()>& fn) {
  std::vector<std::thread> threads;
  for (int i = 1; i < n; ++i) threads.emplace_back(fn);
  std::exception_ptr error;
  try {
    fn();
  } catch (...) {
    error = std::current_exception();
  }
  for (std::thread& t : threads) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

// ---- SpanLog --------------------------------------------------------------

double SpanLog::median_us(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.median();
}

// ---- Report ---------------------------------------------------------------

Report::Report(const Options& opt) : opt_(opt) {}

void Report::gate(const std::string& slot, const std::string& name,
                  double value, const std::string& unit,
                  const std::string& note) {
  slots_[slot] = value;
  add_named(name, value, unit, note, slot);
}

void Report::named(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  add_named(name, value, unit, note, "");
}

void Report::add_named(const std::string& name, double value,
                       const std::string& unit, const std::string& note,
                       const std::string& gate) {
  server::JsonValue m{server::JsonMembers{}};
  m.set("value", value);
  m.set("unit", unit);
  if (!gate.empty()) m.set("gate", gate);
  if (!note.empty()) m.set("note", note);
  named_.set(name, std::move(m));
}

void Report::layer(const std::string& name, double value) {
  layers_[name] = value;
}

void Report::fact(const std::string& key, server::JsonValue value) {
  facts_.set(key, std::move(value));
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

void Report::print(std::uint64_t attempted, std::uint64_t failed,
                   std::uint64_t wrong) const {
  std::cout << "== wfbench " << opt_.workload << " seed=" << opt_.seed
            << " seconds=" << opt_.seconds << " trace=" << opt_.trace
            << (opt_.tiny ? " size=tiny" : "") << "\n";
  for (const auto& [name, m] : named_.members()) {
    std::cout << "  " << opt_.workload << "/" << name << " = "
              << m.find("value")->as_double() << " "
              << m.find("unit")->as_string();
    const server::JsonValue* gate = m.find("gate");
    const server::JsonValue* note = m.find("note");
    if (gate != nullptr || note != nullptr) {
      std::cout << "  (" << (gate ? "gate " + gate->as_string() : "")
                << (gate && note ? "; " : "")
                << (note ? note->as_string() : "") << ")";
    }
    std::cout << "\n";
  }
  const double error_rate =
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  std::cout << "  " << opt_.workload << "/error_rate = " << error_rate
            << " ratio  (" << failed << " of " << attempted << " failed, "
            << wrong << " of them wrong answers)\n";
  for (const std::string& f : failures_) {
    std::cout << "  CHECK FAILED: " << f << "\n";
  }
  std::cout << "facts " << facts_.dump() << "\n";
  std::cout << "named " << named_.dump() << "\n";

  server::JsonValue result{server::JsonMembers{}};
  result.set("correct", failures_.empty());
  result.set("attempted", static_cast<std::int64_t>(attempted));
  result.set("failed", static_cast<std::int64_t>(failed));
  result.set("wrong", static_cast<std::int64_t>(wrong));
  server::JsonValue values{server::JsonMembers{}};
  for (const auto& [name, value] : opt_.trace ? layers_ : slots_) {
    values.set(name, value);
  }
  result.set("values", std::move(values));
  std::cout << result.dump() << std::endl;
}

// ---- logs -----------------------------------------------------------------

namespace {

NamedAttrs named_attrs(const Log& log, const AttrMap& map) {
  NamedAttrs out;
  for (const AttrEntry& e : map) {
    out.emplace_back(log.interner().name(e.attr), e.value);
  }
  return out;
}

server::JsonValue json_of(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return server::JsonValue(nullptr);
    case ValueKind::kInt:
      return server::JsonValue(v.as_int());
    case ValueKind::kDouble:
      return server::JsonValue(v.as_double());
    case ValueKind::kBool:
      return server::JsonValue(v.as_bool());
    case ValueKind::kString:
      return server::JsonValue(v.as_string());
  }
  return server::JsonValue(nullptr);
}

server::JsonValue json_attrs(const Log& log, const AttrMap& map) {
  server::JsonValue obj{server::JsonMembers{}};
  for (const AttrEntry& e : map) {
    obj.set(std::string(log.interner().name(e.attr)), json_of(e.value));
  }
  return obj;
}

}  // namespace

void for_each_event(const Log& log, const EventSink& sink) {
  for (const LogRecord& l : log) {
    if (l.activity == log.start_symbol()) {
      sink.on_begin(l.wid);
    } else if (l.activity == log.end_symbol()) {
      sink.on_end(l.wid);
    } else {
      sink.on_record(l.wid, log.activity_name(l.activity),
                     named_attrs(log, l.in), named_attrs(log, l.out));
    }
  }
}

server::JsonValue ingest_event(const Log& log, const LogRecord& l, Wid wid) {
  server::JsonValue ev{server::JsonMembers{}};
  if (l.activity == log.start_symbol()) {
    ev.set("op", "begin");
    return ev;
  }
  if (l.activity == log.end_symbol()) {
    ev.set("op", "end");
    ev.set("wid", static_cast<std::int64_t>(wid));
    return ev;
  }
  ev.set("op", "record");
  ev.set("wid", static_cast<std::int64_t>(wid));
  ev.set("activity", std::string(log.activity_name(l.activity)));
  if (!l.in.empty()) ev.set("in", json_attrs(log, l.in));
  if (!l.out.empty()) ev.set("out", json_attrs(log, l.out));
  return ev;
}

QueryOptions daemon_query_options() {
  QueryOptions o;
  o.shards = 1;  // as wfqd is started (daemon.cpp)
  return o;
}

// ---- answers --------------------------------------------------------------

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Answer answer_of(const QueryResult& r, std::size_t limit) {
  Answer a;
  a.total = r.total();
  std::uint64_t h = kFnvBasis;
  std::size_t rendered = 0;
  for (const IncidentSet::Group& g : r.incidents.groups()) {
    if (rendered >= limit) break;
    h = mix(h, g.wid);
    for (const Incident& o : g.incidents) {
      if (rendered >= limit) break;
      h = mix(h, o.positions().size());
      for (const IsLsn n : o.positions()) h = mix(h, n);
      ++rendered;
    }
  }
  a.hash = h;
  return a;
}

Answer answer_of(const server::JsonValue& rendered) {
  const server::JsonValue* total = rendered.find("total");
  const server::JsonValue* groups = rendered.find("incidents");
  if (total == nullptr || groups == nullptr || !groups->is_array()) {
    const server::JsonValue* err = rendered.find("error");
    throw std::runtime_error(
        "not an answer: " +
        (err != nullptr ? err->as_string() : rendered.dump().substr(0, 200)));
  }
  Answer a;
  a.total = static_cast<std::uint64_t>(total->as_int());
  std::uint64_t h = kFnvBasis;
  for (const server::JsonValue& g : groups->as_array()) {
    const server::JsonValue* wid = g.find("wid");
    const server::JsonValue* incidents = g.find("incidents");
    if (wid == nullptr || incidents == nullptr || !incidents->is_array()) {
      throw std::runtime_error("malformed incident group: " +
                               g.dump().substr(0, 200));
    }
    h = mix(h, static_cast<std::uint64_t>(wid->as_int()));
    for (const server::JsonValue& o : incidents->as_array()) {
      h = mix(h, o.as_array().size());
      for (const server::JsonValue& n : o.as_array()) {
        h = mix(h, static_cast<std::uint64_t>(n.as_int()));
      }
    }
  }
  a.hash = h;
  return a;
}

server::JsonValue render_like_server(const std::string& query_text,
                                     const QueryResult& r, std::size_t limit) {
  server::JsonValue out{server::JsonMembers{}};
  out.set("query", query_text);
  out.set("pattern", r.parsed != nullptr ? to_text(*r.parsed) : "");
  out.set("optimized", r.executed != nullptr ? to_text(*r.executed) : "");
  out.set("instances", r.incidents.groups().size());
  out.set("total", r.total());
  out.set("complete", r.complete());
  out.set("stop_reason", std::string(stop_reason_name(r.stop_reason)));
  server::JsonArray groups;
  std::size_t rendered = 0;
  for (const IncidentSet::Group& g : r.incidents.groups()) {
    if (rendered >= limit) break;
    server::JsonArray incidents;
    for (const Incident& o : g.incidents) {
      if (rendered >= limit) break;
      server::JsonArray positions;
      for (const IsLsn n : o.positions()) {
        positions.emplace_back(static_cast<std::int64_t>(n));
      }
      incidents.emplace_back(std::move(positions));
      ++rendered;
    }
    server::JsonValue group{server::JsonMembers{}};
    group.set("wid", static_cast<std::int64_t>(g.wid));
    group.set("incidents", std::move(incidents));
    groups.emplace_back(std::move(group));
  }
  out.set("incidents", std::move(groups));
  out.set("rendered", rendered);
  out.set("render_truncated", rendered < r.total());
  server::JsonValue timings{server::JsonMembers{}};
  timings.set("parse_us", r.parse_us);
  timings.set("optimize_us", r.optimize_us);
  timings.set("eval_us", r.eval_us);
  out.set("timings", std::move(timings));
  return out;
}

void InputDigest::add(std::string_view bytes) {
  h_ = fnv1a(h_, bytes);
  h_ = fnv1a(h_, "\n");
}

void InputDigest::add(const Log& log) {
  for (const LogRecord& l : log) add(ingest_event(log, l, l.wid).dump());
}

std::string InputDigest::hex() const { return hex64(h_); }

// ---- files ----------------------------------------------------------------

std::uintmax_t dir_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

std::string dir_hash(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = kFnvBasis;
  for (const fs::path& f : files) {
    h = fnv1a(h, fs::relative(f, dir).generic_string());
    std::ifstream in(f, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    h = fnv1a(h, bytes.str());
  }
  return hex64(h);
}

void copy_dir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

std::string request_bytes(const std::string& target, const std::string& body) {
  // Mirrors HttpClient's request framing (server/client.cpp).
  std::string wire = "POST " + target + " HTTP/1.1\r\n";
  wire += "host: 127.0.0.1:8633\r\n";
  wire += "content-type: application/json\r\n";
  wire += "content-length: " + std::to_string(body.size()) + "\r\n\r\n";
  wire += body;
  return wire;
}

}  // namespace wfbench
