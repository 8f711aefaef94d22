// adhoc: analysts waiting on ad-hoc answers. Four closed-loop connections
// send seeded, distinct /query patterns over the clinic alphabet (2-4
// atoms, all four operators, some negated atoms); one request in eight is
// a /batch of four more distinct patterns. The fixture is a read-only
// ~100k-record clinic store (the paper's running example). Core
// evaluation does nearly all the work; the result cache never hits
// because no pattern repeats; the store and ingest are idle.

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>
#include <set>

#include "core/optimizer.h"
#include "core/pattern.h"
#include "fixture.h"
#include "log/store.h"
#include "server/client.h"
#include "server/http.h"
#include "workflow/clinic.h"
#include "workloads.h"

namespace wfbench {
namespace {

const std::vector<std::string> kClinicActivities = {
    "GetRefer",     "CheckIn",       "SeeDoctor",
    "PayTreatment", "TakeTreatment", "UpdateRefer",
    "GetReimburse", "CompleteRefer", "TerminateRefer"};
const char* const kOperators[] = {" . ", " -> ", " | ", " & "};

constexpr std::size_t kBatchEvery = 8;  // request i % 8 == 7 is a /batch
constexpr std::size_t kBatchSize = 4;
constexpr int kConnections = 4;
/// Requests per second of --seconds: sized so a run on a 4-core box
/// measures for about that long.
constexpr std::size_t kRequestsPerSecond = 100;

struct Sizes {
  std::size_t instances;
  std::size_t requests;
};

Sizes sizes_for(const Options& opt) {
  if (opt.tiny) return {60, 24};
  return {9000, kRequestsPerSecond * static_cast<std::size_t>(opt.seconds)};
}

/// A drawn pattern: its text and its key under the language's algebraic
/// laws (associativity of every operator, commutativity of | and &, and
/// regrouping of mixed . / -> chains), so that patterns with equal keys
/// are one cache entry. The key is built from the drawn tree, not by the
/// code under test, so the drawn set never depends on that code.
struct Drawn {
  std::string text;
  std::string key;
};

/// A drawn pattern's tree.
struct Tree {
  int op = -1;  // index into kOperators; -1 for an atom
  std::string atom;
  std::unique_ptr<Tree> lhs, rhs;
};

bool temporal(int op) { return op == 0 || op == 1; }

std::string key_of(const Tree& t);

/// Appends to `out` the operand keys of the maximal chain of `op` rooted
/// at `t`, with the operators in between for a temporal chain.
void chain(const Tree& t, int op, std::vector<std::string>& out) {
  const bool same = temporal(op) ? temporal(t.op) : t.op == op;
  if (!same) {
    out.push_back(key_of(t));
    return;
  }
  chain(*t.lhs, op, out);
  if (temporal(op)) out.push_back(kOperators[t.op]);
  chain(*t.rhs, op, out);
}

std::string key_of(const Tree& t) {
  if (t.op < 0) return t.atom;
  std::vector<std::string> parts;
  chain(t, t.op, parts);
  if (temporal(t.op)) {
    std::string k = "(";
    for (const std::string& p : parts) k += p;
    return k + ")";
  }
  std::sort(parts.begin(), parts.end());
  std::string k = t.op == 2 ? "{" : "<";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    k += (i == 0 ? "" : kOperators[t.op]) + parts[i];
  }
  return k + (t.op == 2 ? "}" : ">");
}

std::string text_of(const Tree& t) {
  if (t.op < 0) return t.atom;
  std::string text = "(";
  text += text_of(*t.lhs);
  text += kOperators[t.op];
  text += text_of(*t.rhs);
  return text + ")";
}

/// A random tree of `atoms` atoms over the clinic alphabet and all four
/// operators. At most one atom is negated, and only as an operand of
/// ".": a negated atom matches nearly every record, so under ->, | or &
/// (or twice) it yields up to millions of incidents and half a second of
/// evaluation per pattern, which would dominate the run and its spread.
/// Under "." the kept patterns evaluate in about 5-45 ms.
std::unique_ptr<Tree> random_tree(std::mt19937_64& rng, std::size_t atoms,
                                  int parent_op, bool& negation_left) {
  auto t = std::make_unique<Tree>();
  if (atoms == 1) {
    const bool negated = rng() % 4 == 0 && parent_op == 0 && negation_left;
    if (negated) negation_left = false;
    t->atom = (negated ? "!" : "") +
              kClinicActivities[rng() % kClinicActivities.size()];
    return t;
  }
  const std::size_t left = 1 + rng() % (atoms - 1);
  t->op = static_cast<int>(rng() % 4);
  t->lhs = random_tree(rng, left, t->op, negation_left);
  t->rhs = random_tree(rng, atoms - left, t->op, negation_left);
  return t;
}

Drawn random_pattern(std::mt19937_64& rng) {
  bool negation_left = true;
  const std::unique_ptr<Tree> t =
      random_tree(rng, 2 + rng() % 3, -1, negation_left);
  return {text_of(*t), key_of(*t)};
}

struct Request {
  bool batch = false;
  std::vector<std::size_t> patterns;  // indexes into the pattern list
  std::string body;
};

struct Plan {
  std::vector<std::string> patterns;
  std::vector<Answer> expected;
  std::vector<Request> requests;
  std::size_t redrawn = 0;  // draws whose key an earlier pattern had
};

/// Draws distinct patterns until every request has its own, then takes
/// the reference answer of each from the in-process engine (four threads;
/// the engine is safe for concurrent serial runs).
Plan make_plan(const QueryEngine& engine, std::size_t num_requests,
               std::uint64_t seed) {
  Plan plan;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0xad40c);
  std::set<std::string> keys;
  const auto next_pattern = [&]() -> std::size_t {
    for (;;) {
      Drawn d = random_pattern(rng);
      if (!keys.insert(d.key).second) {
        ++plan.redrawn;
        continue;
      }
      plan.patterns.push_back(std::move(d.text));
      return plan.patterns.size() - 1;
    }
  };
  for (std::size_t i = 0; i < num_requests; ++i) {
    Request req;
    req.batch = i % kBatchEvery == kBatchEvery - 1;
    server::JsonValue body{server::JsonMembers{}};
    if (req.batch) {
      server::JsonArray texts;
      for (std::size_t b = 0; b < kBatchSize; ++b) {
        req.patterns.push_back(next_pattern());
        texts.emplace_back(plan.patterns.back());
      }
      body.set("queries", std::move(texts));
    } else {
      req.patterns.push_back(next_pattern());
      body.set("query", plan.patterns.back());
    }
    req.body = body.dump();
    plan.requests.push_back(std::move(req));
  }
  plan.expected.resize(plan.patterns.size());
  std::atomic<std::size_t> next{0};
  run_on_threads(kConnections, [&] {
    for (std::size_t i = next++; i < plan.patterns.size(); i = next++) {
      plan.expected[i] =
          answer_of(engine.run(plan.patterns[i]), kServerRenderLimit);
    }
  });
  return plan;
}

struct Load {
  Samples query_ms;
  Samples batch_ms;
  double wall_s = 0;
  std::size_t patterns_answered = 0;
};

/// Four closed-loop connections share one request sequence; each checks
/// its answers after the latency sample is taken.
Load drive(const Plan& plan, std::uint16_t port, Tally& tally,
           Report& report) {
  Load load;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  run_on_threads(kConnections, [&] {
    server::ClientOptions co;
    co.timeout_ms = 60000;
    co.backoff.max_retries = 0;
    server::HttpClient client("127.0.0.1", port, co);
    Samples q_ms;
    Samples b_ms;
    std::size_t answered = 0;
    std::vector<std::string> problems;
    for (std::size_t i = next++; i < plan.requests.size(); i = next++) {
      const Request& req = plan.requests[i];
      ++tally.attempted;
      bool ok = false;
      try {
        const auto s = Clock::now();
        const server::ClientResponse r =
            client.post(req.batch ? "/batch" : "/query", req.body);
        const double ms = ms_since(s);
        if (r.status != 200) {
          throw std::runtime_error("HTTP " + std::to_string(r.status) + ": " +
                                   r.body);
        }
        (req.batch ? b_ms : q_ms).add(ms);
        const server::JsonValue doc = server::parse_json(r.body);
        std::vector<Answer> got;
        if (req.batch) {
          const server::JsonValue* slots = doc.find("results");
          if (slots == nullptr || !slots->is_array() ||
              slots->as_array().size() != req.patterns.size()) {
            throw std::runtime_error("malformed /batch answer");
          }
          for (const server::JsonValue& slot : slots->as_array()) {
            got.push_back(answer_of(slot));
          }
        } else {
          got.push_back(answer_of(doc));
        }
        ok = true;
        for (std::size_t b = 0; b < req.patterns.size(); ++b) {
          if (!(got[b] == plan.expected[req.patterns[b]])) {
            ok = false;
            problems.push_back(std::string("wrong ") +
                               (req.batch ? "/batch" : "/query") +
                               " answer for " +
                               plan.patterns[req.patterns[b]]);
          }
        }
        if (!ok) ++tally.wrong;
        answered += req.patterns.size();
      } catch (const std::exception& e) {
        ok = false;
        problems.push_back(std::string("request failed: ") + e.what());
      }
      if (!ok) ++tally.failed;
    }
    std::lock_guard lock(mu);
    load.query_ms.append(q_ms);
    load.batch_ms.append(b_ms);
    load.patterns_answered += answered;
    for (std::string& p : problems) report.fail(std::move(p));
  });
  load.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return load;
}

/// Every kReplayStride-th request is replayed in-process: a third of the
/// sequence keeps a traced run within its time budget and still gives each
/// layer hundreds of samples. The stride is coprime with kBatchEvery, so
/// batches are sampled too.
constexpr std::size_t kReplayStride = 3;

/// One in-process pass over the sampled requests through each layer's
/// public functions. With `spans` null nothing is recorded (the untraced
/// pass the overhead is measured against). Returns the pass's wall ms.
double replay(const Plan& plan, const QueryEngine& engine, SpanLog* spans) {
  const auto t0 = Clock::now();
  const server::HttpLimits http_limits;
  for (std::size_t i = 0; i < plan.requests.size(); i += kReplayStride) {
    const Request& req = plan.requests[i];
    std::string buf =
        request_bytes(req.batch ? "/batch" : "/query", req.body);
    server::HttpRequest http;
    std::string error;
    timed(spans, "server.http.parse",
          [&] { server::parse_request(buf, http, http_limits, error); });
    server::JsonValue body;
    timed(spans, "server.json.parse",
          [&] { body = server::parse_json(http.body); });
    std::string out;
    if (req.batch) {
      std::vector<std::string> texts;
      for (const server::JsonValue& q : body.find("queries")->as_array()) {
        texts.push_back(q.as_string());
      }
      BatchResult batch;
      timed(spans, "core.batch_eval",
            [&] { batch = engine.run_batch(texts, 1, true, RunLimits{}); });
      server::JsonArray slots;
      for (std::size_t b = 0; b < texts.size(); ++b) {
        slots.emplace_back(render_like_server(texts[b], batch.results[b],
                                              kServerRenderLimit));
      }
      server::JsonValue doc{server::JsonMembers{}};
      doc.set("results", std::move(slots));
      timed(spans, "server.json.dump", [&] { out = doc.dump(); });
    } else {
      const std::string& text = body.find("query")->as_string();
      Query q;
      timed(spans, "core.parse", [&] { q = Query::parse(text); });
      timed(spans, "core.optimize", [&] {
        optimize(q.pattern, engine.cost_model(), engine.options().optimizer);
      });
      QueryResult r;
      timed(spans, "core.eval",
            [&] { r = engine.run(q.pattern, q.where, RunLimits{}); });
      const server::JsonValue doc =
          render_like_server(text, r, kServerRenderLimit);
      timed(spans, "server.json.dump", [&] { out = doc.dump(); });
    }
  }
  return ms_since(t0);
}

}  // namespace

int run_adhoc(const Options& opt, Report& report, Tally& tally) {
  const Sizes sz = sizes_for(opt);
  const Log sim = clinic_log(sz.instances, opt.seed);
  const Fixture fx = build_fixture(sim, opt.work_dir / "fixture");
  report.fact("fixture", fx.facts());

  // The reference: an in-process engine over the very log wfqd loads.
  std::optional<LogStore> store = LogStore::open(fx.dir);
  const Log log = store->load();
  store.reset();
  const QueryEngine engine(log, daemon_query_options());
  Plan plan = make_plan(engine, sz.requests, opt.seed);
  if (opt.inject_wrong) plan.expected[0].hash ^= 1;
  report.fact("distinct_patterns", plan.patterns.size());
  report.fact("patterns_redrawn", plan.redrawn);
  report.fact("negated_patterns",
              std::count_if(plan.patterns.begin(), plan.patterns.end(),
                            [](const std::string& p) {
                              return p.find('!') != std::string::npos;
                            }));
  report.fact("requests", plan.requests.size());
  InputDigest inputs;
  inputs.add(sim);
  for (const Request& req : plan.requests) inputs.add(req.body);
  report.fact("inputs_hash", inputs.hex());

  const fs::path live = opt.work_dir / "live";
  copy_dir(fx.dir, live);
  Samples setup_s;
  std::unique_ptr<Daemon> d = start_measured(opt, live, kSetupSpawns, setup_s);
  const server::JsonValue before = d->stats();
  const Load load = drive(plan, d->port(), tally, report);
  const server::JsonValue after = d->stats();
  const double rss = d->peak_rss_mb();
  d->stop();
  report.fact("result_cache_bytes",
              after.find("cache")->find("max_bytes")->as_int());

  const double disk_per_event =
      static_cast<double>(fx.bytes) / static_cast<double>(fx.records);
  const double p50 = load.query_ms.median();
  double q95 = 0;
  const double p95 = load.query_ms.p95_supported(&q95);
  const double rate =
      static_cast<double>(load.patterns_answered) / load.wall_s;
  report.gate("main_p50_ms", "query_p50_ms", p50, "ms",
              "n=" + std::to_string(load.query_ms.size()));
  report.gate("main_p95_ms", "query_p95_ms", p95, "ms",
              "quantile " + std::to_string(q95));
  report.gate("side_p50_ms", "batch_p50_ms", load.batch_ms.median(), "ms",
              "n=" + std::to_string(load.batch_ms.size()));
  report.gate("rate_per_s", "queries_per_s", rate, "1/s");
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
  const double untraced_ms = replay(plan, engine, nullptr);
  const double traced_ms = replay(plan, engine, &spans);
  report.layer("obs.trace_overhead_pct",
               100.0 * (traced_ms - untraced_ms) / untraced_ms);

  const double http_us = spans.median_us("server.http.parse");
  const double json_us = spans.median_us("server.json.parse");
  const double dump_us = spans.median_us("server.json.dump");
  report.layer("core.parse_us", spans.median_us("core.parse"));
  report.layer("core.optimize_us", spans.median_us("core.optimize"));
  report.layer("core.eval_ms", spans.median_us("core.eval") / 1000);
  report.layer("core.batch_eval_ms", spans.median_us("core.batch_eval") / 1000);
  double incidents = 0;
  for (const Answer& a : plan.expected) {
    incidents += static_cast<double>(a.total);
  }
  report.layer("core.incidents_per_query",
               incidents / static_cast<double>(plan.expected.size()));
  report.layer("server.http.parse_us", http_us);
  report.layer("server.json.parse_us", json_us);
  report.layer("server.json.dump_us", dump_us);
  // Traced layers on a /query: HTTP parse, JSON parse, pattern parse,
  // QueryEngine::run (optimize + evaluate) and the response dump.
  report.layer("server.unaccounted.query_ms",
               p50 - (http_us + json_us + spans.median_us("core.parse") +
                      spans.median_us("core.eval") + dump_us) /
                         1000);
  report.layer("server.unaccounted.batch_ms",
               load.batch_ms.median() -
                   (http_us + json_us + spans.median_us("core.batch_eval") +
                    dump_us) /
                       1000);
  for (const char* idle :
       {"core.monitor.snapshot_ms", "core.monitor.matches_per_ingest",
        "log.store.append_us", "log.store.deflate_us",
        "server.subscribe.pending_max", "server.ingest.wait_ms",
        "server.unaccounted.ingest_ms"}) {
    report.layer(idle, 0);
  }
  return 0;
}

}  // namespace wfbench
