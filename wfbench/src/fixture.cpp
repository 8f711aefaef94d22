#include "fixture.h"

#include <unistd.h>

#include "log/compress.h"
#include "log/index.h"
#include "log/io_jsonl.h"
#include "server/http.h"

namespace wfbench {
namespace {

MonitorOptions daemon_monitor_options() {
  MonitorOptions mo;
  mo.keep_records = true;  // wfqd snapshots the monitor on every ingest
  return mo;
}

/// What wfqd does with the log it loads at start-up (QueryService ctor).
void feed(LogMonitor& monitor, const Log& log) {
  for_each_event(log, EventSink{
                          [&](Wid) { monitor.begin_instance(); },
                          [&](Wid w, std::string_view a, const NamedAttrs& in,
                              const NamedAttrs& out) {
                            monitor.record(w, a, in, out);
                          },
                          [&](Wid w) { monitor.end_instance(w); },
                      });
}

}  // namespace

server::JsonValue Fixture::facts() const {
  server::JsonValue f{server::JsonMembers{}};
  f.set("records", records);
  f.set("instances", instances);
  f.set("bytes_on_disk", static_cast<std::int64_t>(bytes));
  f.set("hash", hash);
  return f;
}

Fixture build_fixture(const Log& log, const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  LogStore::Options o;
  o.fsync_policy = FsyncPolicy::kOff;
  {
    LogStore store = LogStore::create(dir, o);
    std::unordered_map<Wid, Wid> wid_of;
    for_each_event(
        log, EventSink{
                 [&](Wid w) { wid_of[w] = store.begin_instance(); },
                 [&](Wid w, std::string_view a, const NamedAttrs& in,
                     const NamedAttrs& out) {
                   store.record(wid_of.at(w), a, in, out);
                 },
                 [&](Wid w) { store.end_instance(wid_of.at(w)); },
             });
    store.sync();
  }
  Fixture f;
  f.dir = dir;
  f.records = log.size();
  f.instances = log.wids().size();
  f.bytes = dir_bytes(dir);
  f.hash = dir_hash(dir);
  return f;
}

std::unique_ptr<Daemon> start_measured(const Options& opt,
                                       const std::filesystem::path& store,
                                       int spawns, Samples& setup_s,
                                       Samples* ready_rss_mb) {
  // Write back the fixture and its copies now, not during the load.
  ::sync();
  std::unique_ptr<Daemon> d;
  for (int i = 0; i < spawns; ++i) {
    if (d != nullptr) d->stop();
    d = std::make_unique<Daemon>(opt.wfqd, store, opt.work_dir / "wfqd.log");
    setup_s.add(d->start());
    if (ready_rss_mb != nullptr) ready_rss_mb->add(d->peak_rss_mb());
  }
  return d;
}

std::size_t trace_setup(SpanLog& spans, const std::filesystem::path& store,
                        int reps) {
  std::size_t events = 0;
  for (int r = 0; r < reps; ++r) {
    std::optional<LogStore> s;
    timed(&spans, "log.store.open", [&] { s = LogStore::open(store); });
    std::optional<Log> log;
    timed(&spans, "log.store.load", [&] { log = s->load(); });

    LogMonitor monitor(daemon_monitor_options());
    timed(&spans, "core.monitor.replay", [&] { feed(monitor, *log); });
    events = log->size();

    timed(&spans, "log.index_build", [&] { const LogIndex index(*log); });
    timed(&spans, "core.engine_build", [&] {
      const QueryEngine engine(*log, daemon_query_options());
    });
  }
  return events;
}

void report_setup_layers(const SpanLog& spans, std::size_t events,
                         Report& report) {
  report.layer("log.store.open_ms", spans.median_us("log.store.open") / 1000);
  report.layer("log.store.load_ms", spans.median_us("log.store.load") / 1000);
  report.layer("log.index_build_ms",
               spans.median_us("log.index_build") / 1000);
  report.layer("core.engine_build_ms",
               spans.median_us("core.engine_build") / 1000);
  if (events > 0) {
    report.layer("core.monitor.append_us",
                 spans.median_us("core.monitor.replay") /
                     static_cast<double>(events));
  }
}

// ---- IngestReplay ---------------------------------------------------------

namespace {

void attrs_of(const server::JsonValue* obj, NamedAttrs& to) {
  if (obj == nullptr) return;
  for (const auto& [k, v] : obj->members()) {
    switch (v.kind()) {
      case server::JsonValue::Kind::kInt:
        to.emplace_back(k, Value(v.as_int()));
        break;
      case server::JsonValue::Kind::kDouble:
        to.emplace_back(k, Value(v.as_double()));
        break;
      case server::JsonValue::Kind::kBool:
        to.emplace_back(k, Value(v.as_bool()));
        break;
      case server::JsonValue::Kind::kString:
        to.emplace_back(k, Value(v.as_string()));
        break;
      default:
        to.emplace_back(k, Value());
    }
  }
}

}  // namespace

IngestReplay::IngestReplay(const std::filesystem::path& dir, bool create,
                           SpanLog* spans)
    : spans_(spans), monitor_(daemon_monitor_options()) {
  store_.emplace(create ? LogStore::create(dir) : LogStore::open(dir));
  if (store_->num_records() > 0) feed(monitor_, store_->load());
}

IngestReplay::Timing IngestReplay::ingest(const std::string& body_text) {
  Timing t;
  std::string buf = request_bytes("/ingest", body_text);
  server::HttpRequest http;
  std::string error;
  t.http = timed(spans_, "server.http.parse", [&] {
    server::parse_request(buf, http, server::HttpLimits{}, error);
  });
  server::JsonValue body;
  t.json = timed(spans_, "server.json.parse",
                 [&] { body = server::parse_json(http.body); });
  last_wids_.clear();
  const server::JsonArray& events = body.find("events")->as_array();
  for (const server::JsonValue& ev : events) {
    const std::string& kind = ev.find("op")->as_string();
    if (kind == "begin") {
      Wid w = 0;
      t.monitor += timed(spans_, "core.monitor.append",
                         [&] { w = monitor_.begin_instance(); });
      t.store += timed(spans_, "log.store.append",
                       [&] { store_->begin_instance(); });
      last_wids_.push_back(w);
      continue;
    }
    const Wid w = static_cast<Wid>(ev.find("wid")->as_int());
    if (kind == "end") {
      t.monitor += timed(spans_, "core.monitor.append",
                         [&] { monitor_.end_instance(w); });
      t.store += timed(spans_, "log.store.append",
                       [&] { store_->end_instance(w); });
      continue;
    }
    NamedAttrs in;
    NamedAttrs out;
    attrs_of(ev.find("in"), in);
    attrs_of(ev.find("out"), out);
    const std::string& act = ev.find("activity")->as_string();
    t.monitor += timed(spans_, "core.monitor.append",
                       [&] { monitor_.record(w, act, in, out); });
    t.store += timed(spans_, "log.store.append",
                     [&] { store_->record(w, act, in, out); });
  }
  t.matches = monitor_.drain().size();
  t.snapshot = timed(spans_, "core.monitor.snapshot",
                     [&] { snapshot_ = monitor_.snapshot(); });
  // Not on wfqd's path on its own (the engine builds its index), timed
  // separately so the index's share of the rebuild shows.
  timed(spans_, "log.index_build", [&] { const LogIndex index(*snapshot_); });
  engine_.reset();
  t.engine = timed(spans_, "core.engine_build", [&] {
    engine_ = std::make_unique<QueryEngine>(*snapshot_, daemon_query_options());
  });
  server::JsonArray wids;
  for (const Wid w : last_wids_) {
    wids.emplace_back(static_cast<std::int64_t>(w));
  }
  server::JsonValue resp{server::JsonMembers{}};
  resp.set("applied", events.size());
  resp.set("wids", std::move(wids));
  resp.set("bad_events", server::JsonArray{});
  resp.set("bad_events_dropped", 0);
  resp.set("records", monitor_.num_records());
  std::string dumped;
  t.dump = timed(spans_, "server.json.dump", [&] { dumped = resp.dump(); });
  for (double* ms : {&t.http, &t.json, &t.monitor, &t.store, &t.snapshot,
                     &t.engine, &t.dump}) {
    *ms /= 1000;  // spans measure microseconds
  }
  return t;
}

void IngestReplay::trace_deflate(std::size_t from) {
  const Log all = monitor_.snapshot();
  for (std::size_t i = from; i < all.size(); ++i) {
    const std::string line =
        to_store_line(all.records()[i], all.interner()) + "\n";
    timed(spans_, "log.store.deflate", [&] { deflate_compress(line); });
  }
}

namespace {

double num(const server::JsonValue& root,
           std::initializer_list<const char*> path) {
  const server::JsonValue* v = &root;
  for (const char* key : path) {
    v = v->find(key);
    if (v == nullptr || v->is_null()) return 0;
  }
  return v->is_number() ? v->as_double() : 0;
}

}  // namespace

void report_ingest_layers(const SpanLog& spans,
                          const std::vector<IngestReplay::Timing>& requests,
                          double client_p50_ms, Report& report) {
  Samples parts[7];
  Samples totals;
  for (const IngestReplay::Timing& t : requests) {
    const double v[7] = {t.http,     t.json,   t.monitor, t.store,
                         t.snapshot, t.engine, t.dump};
    for (int i = 0; i < 7; ++i) parts[i].add(v[i]);
    totals.add(t.total());
  }
  double layers = 0;
  for (const Samples& p : parts) layers += p.median();
  report.layer("server.unaccounted.ingest_ms", client_p50_ms - layers);
  report.layer("server.ingest.wait_ms", client_p50_ms - totals.median());
  report.layer("core.monitor.append_us",
               spans.median_us("core.monitor.append"));
  report.layer("log.store.append_us", spans.median_us("log.store.append"));
  report.layer("log.store.deflate_us", spans.median_us("log.store.deflate"));
  report.layer("core.monitor.snapshot_ms",
               spans.median_us("core.monitor.snapshot") / 1000);
  report.layer("core.engine_build_ms",
               spans.median_us("core.engine_build") / 1000);
  report.layer("log.index_build_ms", spans.median_us("log.index_build") / 1000);
  report.layer("server.http.parse_us", spans.median_us("server.http.parse"));
  report.layer("server.json.parse_us", spans.median_us("server.json.parse"));
  report.layer("server.json.dump_us", spans.median_us("server.json.dump"));
}

void report_stats_layers(const server::JsonValue& before,
                         const server::JsonValue& after, Report& report) {
  const auto delta = [&](std::initializer_list<const char*> path) {
    return num(after, path) - num(before, path);
  };
  const double evals = delta({"shards", "evals"});
  report.layer("core.shard.tasks_per_eval",
               evals > 0 ? delta({"shards", "tasks"}) / evals : 0);
  const double hits = delta({"cache", "hits"});
  const double misses = delta({"cache", "misses"});
  report.layer("server.cache.hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0);
  report.layer("server.cache.evictions", delta({"cache", "evictions"}));
  report.layer("server.cache.repairs",
               delta({"subscriptions", "cache_repairs"}));
  report.layer("server.subscribe.delivered",
               delta({"subscriptions", "delivered"}));
  const double compressed =
      num(after, {"store", "storage", "compressed_payload_bytes"});
  report.layer("log.store.compress_ratio",
               compressed > 0
                   ? num(after, {"store", "storage",
                                 "uncompressed_payload_bytes"}) /
                         compressed
                   : 0);
  report.layer("log.store.sealed_blocks",
               num(after, {"store", "storage", "sealed_blocks"}));
  report.layer("log.store.segments", num(after, {"store", "segments"}));
}

}  // namespace wfbench
