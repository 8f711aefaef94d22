// monitor: standing dashboards next to live ingestion. One producer posts
// small procurement ingest requests, first an untimed warm-up back to
// back, then on a fixed open-loop schedule (about a third of the writer's
// time at ~25k records); two dashboards refresh four panels each on a
// timer, closed loop within a refresh; one subscriber long-polls a
// standing query that is also a panel. The ingest critical section does
// the work: snapshot rebuild, cache invalidation and repair, subscription
// routing.

#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "core/optimizer.h"
#include "fixture.h"
#include "server/client.h"
#include "workflow/procurement.h"
#include "workloads.h"

namespace wfbench {
namespace {

/// The dashboard: compliance panels whose answers stay small, so the
/// result cache (64 MiB) holds every version a run produces and never
/// evicts mid-run. Element 0 is also the standing query; it completes in
/// about half of the new instances, which gives the delivery latency its
/// samples.
const std::vector<std::string> kDashboard = {
    "ReceiveInvoice -> ReceiveGoods",  // invoice before goods
    "Pay -> Pay",                      // duplicate payment
    "Pay -> MatchThreeWay",            // payment before the match
    "!ApprovePayment . Pay",           // maverick payment
    "MatchThreeWay . Pay",             // paid straight after the match
    "Dispute -> MatchThreeWay",        // disputes resolved
    "Dispute & Pay",
    "InspectGoods -> Dispute",
};
constexpr std::size_t kEventsPerIngest = 8;
constexpr int kReaders = 2;
/// Each dashboard refreshes all its panels every kRefreshMs: five ingests
/// land between refreshes, so every panel but the repaired standing query
/// is a cache miss. (Free-running readers made the writer's latency
/// spread wider from run to run.)
constexpr double kRefreshMs = 750;
/// Incidents a dashboard panel renders per pattern (/query "limit").
constexpr std::int64_t kPanelRows = 20;

struct Sizes {
  std::size_t fixture_instances;
  std::size_t warmup;   ///< untimed ingests sent back to back first
  std::size_t ingests;  ///< timed ingests, on the open-loop schedule
  double period_ms;
};

Sizes sizes_for(const Options& opt) {
  if (opt.tiny) return {40, 4, 12, 20};
  // Three seconds of schedule per second of --seconds, one ingest every
  // 150 ms: the writer is busy about a third of the time at ~25k records,
  // so a slower machine does not push the open-loop schedule into a
  // backlog, and a run has 400 timed ingests. Within one wfqd process the
  // ingest latency next to the dashboards climbs over the first hundred
  // ingests or so; the warm-up sends those back to back, untimed.
  constexpr double kPeriodMs = 150;
  constexpr std::size_t kWarmup = 100;
  return {2000, kWarmup,
          static_cast<std::size_t>(
              std::lround(3.0 * opt.seconds * 1000.0 / kPeriodMs)),
          kPeriodMs};
}

struct IngestPlan {
  std::vector<std::string> bodies;
  std::vector<std::vector<Wid>> new_wids;  // begins of each request
  std::vector<std::size_t> events;         // events per request
  /// (server wid, is-lsn) -> request that carried that record.
  std::map<std::pair<Wid, IsLsn>, std::size_t> request_of;
};

IngestPlan plan_ingests(const Log& stream, std::size_t ingests,
                        std::size_t first_wid) {
  IngestPlan plan;
  std::unordered_map<Wid, Wid> wid_of;
  Wid next = static_cast<Wid>(first_wid);
  server::JsonArray events;
  std::vector<Wid> begun;
  for (const LogRecord& l : stream) {
    if (plan.bodies.size() == ingests) break;
    if (l.activity == stream.start_symbol()) {
      wid_of[l.wid] = next;
      begun.push_back(next++);
    }
    const Wid wid = wid_of.at(l.wid);
    plan.request_of[{wid, l.is_lsn}] = plan.bodies.size();
    events.push_back(ingest_event(stream, l, wid));
    if (events.size() == kEventsPerIngest) {
      server::JsonValue body{server::JsonMembers{}};
      body.set("events", std::move(events));
      plan.bodies.push_back(body.dump());
      plan.new_wids.push_back(std::move(begun));
      plan.events.push_back(kEventsPerIngest);
      events = {};
      begun = {};
    }
  }
  if (plan.bodies.size() != ingests) {
    throw std::logic_error("ingest stream too short");
  }
  return plan;
}

using Incidents = std::multiset<std::pair<Wid, std::vector<std::int64_t>>>;

struct Load {
  Samples ingest_ms;   // from the scheduled send
  Samples service_ms;  // from the actual send
  Samples lateness_ms;
  Samples query_ms;
  Samples delivery_ms;
  double duration_s = 0;
  std::size_t pending_max = 0;
};

std::string query_body(const std::string& text, std::int64_t limit = -1) {
  server::JsonValue body{server::JsonMembers{}};
  body.set("query", text);
  if (limit >= 0) body.set("limit", limit);
  return body.dump();
}

Load drive(const Sizes& sz, const IngestPlan& plan, std::size_t fixture_wids,
           std::uint16_t port, const Options& opt, Tally& tally,
           Report& report) {
  Load load;
  server::ClientOptions co;
  co.timeout_ms = 60000;
  co.backoff.max_retries = 0;
  server::HttpClient producer("127.0.0.1", port, co);

  // The standing query registers before the schedule starts; its first
  // deliveries are the historical matches.
  ++tally.attempted;
  const server::ClientResponse sub =
      producer.post("/subscribe", query_body(kDashboard[0]));
  if (sub.status != 201) {
    throw std::runtime_error("POST /subscribe failed: " + sub.body);
  }
  const std::string sub_id =
      server::parse_json(sub.body).find("id")->as_string();

  std::vector<std::atomic<std::int64_t>> sent_ns(plan.bodies.size());
  const auto epoch = Clock::now();
  const auto ns_now = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch)
        .count();
  };
  std::atomic<bool> producer_done{false};
  std::atomic<std::int64_t> target{-1};  // final /query total
  std::mutex mu;
  Incidents delivered;
  std::vector<std::string> problems;

  const auto start = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      server::HttpClient client("127.0.0.1", port, co);
      std::vector<std::string> bodies;
      for (const std::string& q : kDashboard) {
        bodies.push_back(query_body(q, kPanelRows));
      }
      // Each reader refreshes its half of the panels on a fixed timer,
      // closed loop within a refresh; the readers are staggered by half a
      // refresh period.
      const std::size_t per_reader = bodies.size() / kReaders;
      const auto period =
          std::chrono::duration<double, std::milli>(kRefreshMs);
      Samples ms;
      for (std::size_t j = 0; !producer_done.load(); ++j) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        period * (static_cast<double>(j) +
                                  static_cast<double>(r) / kReaders)));
        if (producer_done.load()) break;
        for (std::size_t p = 0; p < per_reader; ++p) {
          ++tally.attempted;
          try {
            const auto s = Clock::now();
            const server::ClientResponse resp = client.post(
                "/query", bodies[static_cast<std::size_t>(r) * per_reader + p]);
            const double lat = ms_since(s);
            if (resp.status != 200 ||
                resp.body.find("\"total\":") == std::string::npos) {
              throw std::runtime_error("HTTP " + std::to_string(resp.status));
            }
            ms.add(lat);
          } catch (const std::exception& e) {
            ++tally.failed;
            std::lock_guard lock(mu);
            problems.push_back(std::string("dashboard read: ") + e.what());
          }
        }
      }
      std::lock_guard lock(mu);
      load.query_ms.append(ms);
    });
  }
  threads.emplace_back([&] {
    server::HttpClient client("127.0.0.1", port, co);
    std::uint64_t after = 0;
    std::uint64_t next_seq = 1;
    Samples ms;
    std::size_t pending_max = 0;
    Incidents got;
    std::optional<Clock::time_point> give_up;
    for (;;) {
      const std::int64_t want = target.load();
      if (want >= 0 && static_cast<std::int64_t>(got.size()) >= want) break;
      if (want >= 0 && !give_up) {
        give_up = Clock::now() + std::chrono::seconds(15);
      }
      if (give_up && Clock::now() > *give_up) break;
      ++tally.attempted;
      try {
        const server::ClientResponse resp = client.get(
            "/subscribe/" + sub_id + "?after=" + std::to_string(after) +
            "&wait_ms=200");
        const std::int64_t receipt = ns_now();
        if (resp.status != 200) {
          throw std::runtime_error("HTTP " + std::to_string(resp.status));
        }
        const server::JsonValue doc = server::parse_json(resp.body);
        const server::JsonArray& events = doc.find("events")->as_array();
        if (after > 0) {  // the first poll carries the historical replay
          pending_max = std::max<std::size_t>(
              pending_max, events.size() + static_cast<std::size_t>(
                                               doc.find("pending")->as_int()));
        }
        for (const server::JsonValue& e : events) {
          if (static_cast<std::uint64_t>(e.find("seq")->as_int()) !=
              next_seq++) {
            throw std::runtime_error("subscription seqs are not dense");
          }
          const Wid wid = static_cast<Wid>(e.find("wid")->as_int());
          std::vector<std::int64_t> pos;
          for (const server::JsonValue& p : e.find("positions")->as_array()) {
            pos.push_back(p.as_int());
          }
          if (wid > fixture_wids) {
            const auto it = plan.request_of.find(
                {wid, static_cast<IsLsn>(pos.back())});
            if (it == plan.request_of.end()) {
              throw std::runtime_error("delivery for a record never sent");
            }
            if (it->second >= sz.warmup) {
              ms.add(static_cast<double>(receipt -
                                         sent_ns[it->second].load()) /
                     1e6);
            }
          }
          got.emplace(wid, std::move(pos));
        }
        after = static_cast<std::uint64_t>(doc.find("next_after")->as_int());
      } catch (const std::exception& e) {
        ++tally.failed;
        std::lock_guard lock(mu);
        problems.push_back(std::string("subscription poll: ") + e.what());
        break;
      }
    }
    std::lock_guard lock(mu);
    load.delivery_ms.append(ms);
    load.pending_max = pending_max;
    delivered = std::move(got);
  });

  // The producer. Warm-up: the first sz.warmup ingests back to back,
  // untimed, while the dashboards refresh, so the timed ingests find the
  // server past its start-up transient. Then one ingest per period, timed
  // from its scheduled send; the schedule starts on a dashboard refresh
  // boundary, so reads meet the same ingests in every run.
  const auto period = std::chrono::duration<double, std::milli>(sz.period_ms);
  const auto refresh = std::chrono::duration<double, std::milli>(kRefreshMs);
  auto timed_start = start;
  for (std::size_t k = 0; k < plan.bodies.size(); ++k) {
    const bool timed = k >= sz.warmup;
    if (k == sz.warmup && k > 0) {
      const double refreshes = std::ceil(
          std::chrono::duration<double, std::milli>(Clock::now() - start) /
          refresh);
      timed_start =
          start + std::chrono::duration_cast<Clock::duration>(refresh *
                                                              refreshes);
    }
    const auto due =
        timed ? timed_start + std::chrono::duration_cast<Clock::duration>(
                                  period * static_cast<double>(k - sz.warmup))
              : Clock::now();
    std::this_thread::sleep_until(due);
    sent_ns[k].store(ns_now());
    const auto sent = Clock::now();
    if (timed) load.lateness_ms.add(ms_since(due));
    ++tally.attempted;
    try {
      const server::ClientResponse r = producer.post("/ingest", plan.bodies[k]);
      if (timed) {
        load.ingest_ms.add(ms_since(due));
        load.service_ms.add(ms_since(sent));
      }
      if (r.status != 200) {
        throw std::runtime_error("HTTP " + std::to_string(r.status) + ": " +
                                 r.body);
      }
      const server::JsonValue doc = server::parse_json(r.body);
      std::vector<Wid> wids;
      for (const server::JsonValue& w : doc.find("wids")->as_array()) {
        wids.push_back(static_cast<Wid>(w.as_int()));
      }
      if (static_cast<std::size_t>(doc.find("applied")->as_int()) !=
              plan.events[k] ||
          wids != plan.new_wids[k]) {
        ++tally.wrong;
        throw std::runtime_error("ingest applied other events than sent");
      }
    } catch (const std::exception& e) {
      ++tally.failed;
      std::lock_guard lock(mu);
      problems.push_back(std::string("ingest: ") + e.what());
    }
  }
  load.duration_s =
      std::chrono::duration<double>(Clock::now() - timed_start).count();
  producer_done = true;

  // The check: the concatenated deliveries equal a final /query.
  Incidents expected;
  ++tally.attempted;
  const server::ClientResponse fin =
      producer.post("/query", query_body(kDashboard[0], 100000000));
  if (fin.status == 200) {
    const server::JsonValue doc = server::parse_json(fin.body);
    for (const server::JsonValue& g : doc.find("incidents")->as_array()) {
      const Wid wid = static_cast<Wid>(g.find("wid")->as_int());
      for (const server::JsonValue& o : g.find("incidents")->as_array()) {
        std::vector<std::int64_t> pos;
        for (const server::JsonValue& p : o.as_array()) {
          pos.push_back(p.as_int());
        }
        expected.emplace(wid, std::move(pos));
      }
    }
    if (opt.inject_wrong) {
      expected.emplace(Wid{0}, std::vector<std::int64_t>{1});
    }
    target = static_cast<std::int64_t>(expected.size());
  } else {
    ++tally.failed;
    target = 0;
    problems.push_back("final /query failed: " + fin.body);
  }
  for (std::thread& t : threads) t.join();
  if (delivered != expected) {
    ++tally.failed;
    ++tally.wrong;
    problems.push_back("subscription deliveries (" +
                       std::to_string(delivered.size()) +
                       ") differ from the final /query (" +
                       std::to_string(expected.size()) + ")");
  }
  for (std::string& p : problems) report.fail(std::move(p));
  return load;
}

struct Replay {
  double wall_ms = 0;
  std::vector<IngestReplay::Timing> requests;
  Samples incidents;  // per dashboard evaluation
};

/// The ingest sequence in-process on a copy of the fixture, plus the
/// dashboard misses each new snapshot version causes. `spans` null =
/// untraced.
Replay replay(const IngestPlan& plan, const fs::path& fixture,
              const fs::path& scratch, SpanLog* spans) {
  copy_dir(fixture, scratch);
  IngestReplay ingest(scratch, /*create=*/false, spans);
  ingest.monitor().add_query(kDashboard[0]);
  ingest.monitor().drain();
  Replay out;
  const std::size_t first_new = ingest.monitor().num_records();
  const auto t0 = Clock::now();
  for (const std::string& body : plan.bodies) {
    out.requests.push_back(ingest.ingest(body));
    // Every dashboard pattern but the repaired standing query misses once
    // per snapshot version.
    const QueryEngine& engine = *ingest.engine();
    for (std::size_t i = 1; i < kDashboard.size(); ++i) {
      Query q;
      timed(spans, "core.parse", [&] { q = Query::parse(kDashboard[i]); });
      timed(spans, "core.optimize", [&] {
        optimize(q.pattern, engine.cost_model(), engine.options().optimizer);
      });
      std::size_t total = 0;
      timed(spans, "core.eval", [&] {
        total = engine.run(q.pattern, q.where, RunLimits{}).total();
      });
      out.incidents.add(static_cast<double>(total));
    }
  }
  out.wall_ms = ms_since(t0);
  if (spans != nullptr) ingest.trace_deflate(first_new);
  return out;
}

}  // namespace

int run_monitor(const Options& opt, Report& report, Tally& tally) {
  const Sizes sz = sizes_for(opt);
  const Log sim = procurement_log(sz.fixture_instances, opt.seed);
  const Fixture fx = build_fixture(sim, opt.work_dir / "fixture");
  report.fact("fixture", fx.facts());
  // ~12 records per instance: ample events for the ingest plan.
  const Log stream =
      procurement_log(sz.warmup + sz.ingests + 50, opt.seed ^ 0x5151u);
  const IngestPlan plan =
      plan_ingests(stream, sz.warmup + sz.ingests, fx.instances + 1);
  report.fact("warmup_ingests", sz.warmup);
  report.fact("timed_ingests", sz.ingests);
  report.fact("events_per_ingest", kEventsPerIngest);
  report.fact("ingest_period_ms", sz.period_ms);
  report.fact("dashboard_patterns", kDashboard.size());
  InputDigest inputs;
  inputs.add(sim);
  for (const std::string& body : plan.bodies) inputs.add(body);
  report.fact("inputs_hash", inputs.hex());

  const fs::path live = opt.work_dir / "live";
  copy_dir(fx.dir, live);
  Samples setup_s;
  std::unique_ptr<Daemon> d = start_measured(opt, live, kSetupSpawns, setup_s);
  const server::JsonValue before = d->stats();
  const Load load =
      drive(sz, plan, fx.instances, d->port(), opt, tally, report);
  const server::JsonValue after = d->stats();
  const double rss = d->peak_rss_mb();
  d->stop();
  report.fact("result_cache_bytes",
              after.find("cache")->find("max_bytes")->as_int());
  report.fact("cache_bytes_at_end",
              after.find("cache")->find("bytes")->as_int());
  report.fact("cache_evictions",
              after.find("cache")->find("evictions")->as_int() -
                  before.find("cache")->find("evictions")->as_int());
  const double records =
      after.find("store")->find("records")->as_double();
  const double disk_per_event = static_cast<double>(dir_bytes(live)) / records;

  const double late_p99 = load.lateness_ms.quantile(0.99);
  report.fact("lateness_p50_ms", load.lateness_ms.median());
  report.fact("lateness_p99_ms", late_p99);
  report.fact("lateness_max_ms", load.lateness_ms.quantile(1.0));
  if (late_p99 > sz.period_ms) {
    report.fail("void run: the generator ran late (p99 " +
                std::to_string(late_p99) + " ms > one period)");
  }
  double q95 = 0;
  const double ingest_p95 = load.ingest_ms.p95_supported(&q95);
  double rq95 = 0;
  const double query_p95 = load.query_ms.p95_supported(&rq95);
  // Events the writer absorbs per second of its own time, at the median
  // ingest service time: the ingest rate this server could sustain next
  // to these dashboards.
  const double capacity = static_cast<double>(kEventsPerIngest) /
                          (load.service_ms.median() / 1000);
  report.gate("main_p50_ms", "ingest_p50_ms", load.ingest_ms.median(), "ms",
              "from scheduled send; n=" +
                  std::to_string(load.ingest_ms.size()));
  report.gate("main_p95_ms", "ingest_p95_ms", ingest_p95, "ms",
              "quantile " + std::to_string(q95));
  report.gate("side_p50_ms", "delivery_p50_ms", load.delivery_ms.median(),
              "ms", "n=" + std::to_string(load.delivery_ms.size()));
  report.named("query_p50_ms", load.query_ms.median(), "ms",
               "n=" + std::to_string(load.query_ms.size()));
  report.named("query_p95_ms", query_p95, "ms",
               "quantile " + std::to_string(rq95));
  report.gate("rate_per_s", "ingest_capacity_per_s", capacity, "1/s",
              "events per second of ingest service time");
  report.named("writer_busy_share",
               load.ingest_ms.sum() / (load.duration_s * 1000), "ratio");
  report.gate("setup_s", "setup_s", setup_s.median(), "s",
              "median of " + std::to_string(kSetupSpawns) + " spawns");
  report.gate("peak_rss_mb", "peak_rss_mb", rss, "MiB");
  report.gate("disk_bytes_per_event", "disk_bytes_per_event", disk_per_event,
              "B");

  if (!opt.trace) return 0;

  SpanLog spans;
  const std::size_t events = trace_setup(spans, fx.dir, 3);
  report_setup_layers(spans, events, report);
  report_stats_layers(before, after, report);
  const Replay untraced =
      replay(plan, fx.dir, opt.work_dir / "replay", nullptr);
  const Replay traced = replay(plan, fx.dir, opt.work_dir / "replay", &spans);
  report.layer("obs.trace_overhead_pct",
               100.0 * (traced.wall_ms - untraced.wall_ms) / untraced.wall_ms);

  report_ingest_layers(spans, traced.requests, load.ingest_ms.median(),
                       report);
  double matches = 0;
  for (const IngestReplay::Timing& t : traced.requests) {
    matches += static_cast<double>(t.matches);
  }
  report.layer("core.monitor.matches_per_ingest",
               matches / static_cast<double>(traced.requests.size()));
  report.layer("core.parse_us", spans.median_us("core.parse"));
  report.layer("core.optimize_us", spans.median_us("core.optimize"));
  report.layer("core.eval_ms", spans.median_us("core.eval") / 1000);
  report.layer("core.batch_eval_ms", 0);
  report.layer("server.subscribe.pending_max",
               static_cast<double>(load.pending_max));
  // Panel refreshes are result-cache misses (all but the standing query):
  // their traced layers are the HTTP and JSON parse, the pattern parse and
  // the evaluation.
  report.layer("server.unaccounted.query_ms",
               load.query_ms.median() -
                   (spans.median_us("server.http.parse") +
                    spans.median_us("server.json.parse") +
                    spans.median_us("core.parse") +
                    spans.median_us("core.eval")) /
                       1000);
  report.layer("server.unaccounted.batch_ms", 0);
  report.layer("core.incidents_per_query",
               traced.incidents.sum() /
                   static_cast<double>(traced.incidents.size()));
  return 0;
}

}  // namespace wfbench
