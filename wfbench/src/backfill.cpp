// backfill: the workflow engine catching up into an empty durable store
// under wfqd's default per-append fsync. Four closed-loop producers post
// batches of two requests: a "begin" for eight instances, then all their
// records and ends. The run stops at a fixed record count, across at
// least one segment roll, and has no readers: the store (append, fsync,
// DEFLATE blocks, segment seal) and JSON parsing of large bodies dominate,
// and concurrent producers wait on wfqd's single ingest mutex.

#include <mutex>

#include "fixture.h"
#include "server/client.h"
#include "workflow/procurement.h"
#include "workloads.h"

namespace wfbench {
namespace {

constexpr std::size_t kInstancesPerBatch = 8;
constexpr int kProducers = 4;
/// Instances per second of --seconds: sized so a run on a 4-core box
/// measures for about that long (at 20 s: ~37k records, three segment
/// rolls at wfqd's 10k records per segment).
constexpr std::size_t kInstancesPerSecond = 150;

struct Batch {
  std::vector<Wid> sim_wids;
  std::vector<std::size_t> records;  // non-START sim records, in lsn order
};

std::vector<Batch> plan_batches(const Log& sim) {
  std::vector<Batch> batches;
  std::unordered_map<Wid, std::size_t> batch_of;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    const LogRecord& l = sim.records()[i];
    if (l.activity == sim.start_symbol()) {
      if (batches.empty() ||
          batches.back().sim_wids.size() == kInstancesPerBatch) {
        batches.emplace_back();
      }
      batches.back().sim_wids.push_back(l.wid);
      batch_of[l.wid] = batches.size() - 1;
    } else {
      batches[batch_of.at(l.wid)].records.push_back(i);
    }
  }
  return batches;
}

std::string begin_body(std::size_t n) {
  server::JsonArray events;
  for (std::size_t i = 0; i < n; ++i) {
    server::JsonValue ev{server::JsonMembers{}};
    ev.set("op", "begin");
    events.push_back(std::move(ev));
  }
  server::JsonValue body{server::JsonMembers{}};
  body.set("events", std::move(events));
  return body.dump();
}

std::string records_body(const Log& sim, const Batch& b,
                         const std::unordered_map<Wid, Wid>& wid_of) {
  server::JsonArray events;
  for (const std::size_t i : b.records) {
    const LogRecord& l = sim.records()[i];
    events.push_back(ingest_event(sim, l, wid_of.at(l.wid)));
  }
  server::JsonValue body{server::JsonMembers{}};
  body.set("events", std::move(events));
  return body.dump();
}

struct Load {
  Samples begin_ms;
  Samples records_ms;
  double wall_s = 0;
  std::uint64_t acked = 0;
  std::unordered_map<Wid, Wid> sim_of;  // server wid -> sim wid
};

Load drive(const Log& sim, const std::vector<Batch>& batches,
           std::uint16_t port, Tally& tally, Report& report) {
  Load load;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  run_on_threads(kProducers, [&] {
    server::ClientOptions co;
    co.timeout_ms = 60000;
    co.backoff.max_retries = 0;
    server::HttpClient client("127.0.0.1", port, co);
    Samples begin_ms;
    Samples records_ms;
    std::uint64_t acked = 0;
    std::unordered_map<Wid, Wid> sim_of;
    std::vector<std::string> problems;
    for (std::size_t i = next++; i < batches.size(); i = next++) {
      const Batch& b = batches[i];
      try {
        ++tally.attempted;
        auto s = Clock::now();
        server::ClientResponse r =
            client.post("/ingest", begin_body(b.sim_wids.size()));
        begin_ms.add(ms_since(s));
        if (r.status != 200) {
          throw std::runtime_error("begin: HTTP " + std::to_string(r.status));
        }
        const server::JsonValue doc = server::parse_json(r.body);
        const server::JsonArray& wids = doc.find("wids")->as_array();
        if (wids.size() != b.sim_wids.size()) {
          throw std::runtime_error("begin acked a different count");
        }
        acked += wids.size();
        std::unordered_map<Wid, Wid> wid_of;
        for (std::size_t k = 0; k < wids.size(); ++k) {
          const Wid w = static_cast<Wid>(wids[k].as_int());
          wid_of[b.sim_wids[k]] = w;
          sim_of[w] = b.sim_wids[k];
        }
        const std::string body = records_body(sim, b, wid_of);
        ++tally.attempted;
        s = Clock::now();
        r = client.post("/ingest", body);
        records_ms.add(ms_since(s));
        if (r.status != 200) {
          throw std::runtime_error("records: HTTP " +
                                   std::to_string(r.status));
        }
        const std::size_t applied = static_cast<std::size_t>(
            server::parse_json(r.body).find("applied")->as_int());
        acked += applied;
        if (applied != b.records.size()) {
          throw std::runtime_error("records acked a different count");
        }
      } catch (const std::exception& e) {
        ++tally.failed;
        problems.push_back(std::string("ingest: ") + e.what());
      }
    }
    std::lock_guard lock(mu);
    load.begin_ms.append(begin_ms);
    load.records_ms.append(records_ms);
    load.acked += acked;
    load.sim_of.insert(sim_of.begin(), sim_of.end());
    for (std::string& p : problems) report.fail(std::move(p));
  });
  load.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return load;
}

/// Zero acked loss: the reopened store holds exactly the acked records,
/// each instance with the activity sequence that was sent for it.
void check_reopened(const Log& sim, const Load& load,
                    const std::filesystem::path& dir, std::uint64_t expected,
                    Report& report, Tally& tally) {
  std::optional<LogStore> store = LogStore::open(dir);
  const Log got = store->load();
  if (got.size() != expected) {
    ++tally.failed;
    ++tally.wrong;
    report.fail("reopened store holds " + std::to_string(got.size()) +
                " records, " + std::to_string(expected) + " were acked");
    return;
  }
  std::unordered_map<Wid, std::vector<std::string_view>> sent;
  for (const LogRecord& l : sim) {
    sent[l.wid].push_back(sim.activity_name(l.activity));
  }
  std::unordered_map<Wid, std::vector<std::string_view>> stored;
  for (const LogRecord& l : got) {
    stored[l.wid].push_back(got.activity_name(l.activity));
  }
  for (const auto& [wid, acts] : stored) {
    const auto it = load.sim_of.find(wid);
    if (it == load.sim_of.end() || sent.at(it->second) != acts) {
      ++tally.failed;
      ++tally.wrong;
      report.fail("reopened instance " + std::to_string(wid) +
                  " differs from what was sent");
      return;
    }
  }
}

}  // namespace

int run_backfill(const Options& opt, Report& report, Tally& tally) {
  const std::size_t instances =
      opt.tiny ? 24
               : kInstancesPerSecond * static_cast<std::size_t>(opt.seconds);
  const Log sim = procurement_log(instances, opt.seed);
  const std::vector<Batch> batches = plan_batches(sim);
  server::JsonValue input{server::JsonMembers{}};
  input.set("records", sim.size());
  input.set("instances", sim.wids().size());
  input.set("instances_per_batch", kInstancesPerBatch);
  input.set("batches", batches.size());
  report.fact("input", std::move(input));
  InputDigest inputs;
  inputs.add(sim);
  report.fact("inputs_hash", inputs.hex());

  const fs::path store = opt.work_dir / "store";
  fs::remove_all(store);
  Samples empty_start_s;
  std::unique_ptr<Daemon> d = start_measured(opt, store, 1, empty_start_s);
  report.fact("empty_store_start_s", empty_start_s.median());
  const server::JsonValue before = d->stats();
  const Load load = drive(sim, batches, d->port(), tally, report);
  const server::JsonValue after = d->stats();
  const double ingest_rss = d->peak_rss_mb();
  d->stop();
  d.reset();

  // Restart on the backfilled store: the set-up and the memory a user
  // waits for after a catch-up, and the zero-acked-loss check. (The
  // ingesting process's own peak depends on how many snapshots its
  // workers happened to hold at once, and varies by a third run to run.)
  Samples setup_s;
  Samples rss;
  d = start_measured(opt, store, kSetupSpawns, setup_s, &rss);
  const std::uint64_t expected = load.acked + (opt.inject_wrong ? 1 : 0);
  const server::JsonValue reopened = d->stats();
  d->stop();
  d.reset();
  const auto reopened_records =
      static_cast<std::uint64_t>(reopened.find("records")->as_int());
  if (reopened_records != expected) {
    ++tally.failed;
    ++tally.wrong;
    report.fail("wfqd reopened " + std::to_string(reopened_records) +
                " records, " + std::to_string(expected) + " were acked");
  }
  check_reopened(sim, load, store, expected, report, tally);

  const double events_per_s = static_cast<double>(load.acked) / load.wall_s;
  const double disk_per_event =
      static_cast<double>(dir_bytes(store)) / static_cast<double>(load.acked);
  double q95 = 0;
  const double p95 = load.records_ms.p95_supported(&q95);
  report.fact("segments", after.find("store")->find("segments")->as_int());
  report.gate("main_p50_ms", "ingest_p50_ms", load.records_ms.median(), "ms",
              "records requests; n=" +
                  std::to_string(load.records_ms.size()));
  report.gate("main_p95_ms", "ingest_p95_ms", p95, "ms",
              "quantile " + std::to_string(q95));
  report.gate("side_p50_ms", "begin_p50_ms", load.begin_ms.median(), "ms",
              "begin requests; n=" + std::to_string(load.begin_ms.size()));
  report.gate("rate_per_s", "events_per_s", events_per_s, "1/s");
  report.gate("setup_s", "setup_s", setup_s.median(), "s",
              "median of " + std::to_string(kSetupSpawns) +
                  " restarts on the backfilled store");
  report.gate("peak_rss_mb", "peak_rss_mb", rss.median(), "MiB",
              "median of the restarts once ready");
  report.named("ingest_peak_rss_mb", ingest_rss, "MiB",
               "the ingesting process");
  report.gate("disk_bytes_per_event", "disk_bytes_per_event", disk_per_event,
              "B");

  if (!opt.trace) return 0;

  SpanLog spans;
  const std::size_t events = trace_setup(spans, store, 3);
  report_setup_layers(spans, events, report);
  report_stats_layers(before, after, report);
  // The same batches, serially, in-process: untraced, then traced.
  const auto pass = [&](SpanLog* s,
                        std::vector<IngestReplay::Timing>* records_requests) {
    const fs::path dir = opt.work_dir / "replay";
    fs::remove_all(dir);
    IngestReplay ingest(dir, /*create=*/true, s);
    const auto t0 = Clock::now();
    for (const Batch& b : batches) {
      ingest.ingest(begin_body(b.sim_wids.size()));
      std::unordered_map<Wid, Wid> wid_of;
      for (std::size_t k = 0; k < b.sim_wids.size(); ++k) {
        wid_of[b.sim_wids[k]] = ingest.last_wids().at(k);
      }
      const IngestReplay::Timing t =
          ingest.ingest(records_body(sim, b, wid_of));
      if (records_requests != nullptr) records_requests->push_back(t);
    }
    const double wall = ms_since(t0);
    if (s != nullptr) ingest.trace_deflate(0);
    return wall;
  };
  const double untraced_ms = pass(nullptr, nullptr);
  std::vector<IngestReplay::Timing> records_requests;
  const double traced_ms = pass(&spans, &records_requests);
  report.layer("obs.trace_overhead_pct",
               100.0 * (traced_ms - untraced_ms) / untraced_ms);
  report_ingest_layers(spans, records_requests, load.records_ms.median(),
                       report);
  report.layer("core.monitor.matches_per_ingest", 0);
  for (const char* idle :
       {"core.parse_us", "core.optimize_us", "core.eval_ms",
        "core.batch_eval_ms", "core.incidents_per_query",
        "server.subscribe.pending_max", "server.unaccounted.query_ms",
        "server.unaccounted.batch_ms"}) {
    report.layer(idle, 0);
  }
  return 0;
}

}  // namespace wfbench
