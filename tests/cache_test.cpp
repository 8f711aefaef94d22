// The wfqd cross-request result cache (src/server/cache.h): key structure,
// LRU/byte-budget mechanics, soundness gates (incomplete results refused,
// tighter-limit requests not served), and the differential suite the PR's
// acceptance criteria name — the same query stream against a cache-on and
// a cache-off server must produce bit-identical answers across /query and
// /batch, through ingest-driven snapshot bumps, under 8 concurrent
// clients, and with deadline/budget-truncated runs interleaved.
//
// "Bit-identical" is asserted on the response body minus the volatile
// blocks that legitimately differ run to run even WITHOUT a cache:
// per-slot "timings" (wall-clock) and the /batch "stats" block (it
// describes the evaluation pass that actually executed, which is exactly
// what the cache shrinks). Everything else — pattern, optimized,
// incidents, totals, stop_reason, error slots — must match byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "server/cache.h"
#include "server/client.h"
#include "server/handlers.h"
#include "server/json.h"
#include "server/server.h"
#include "test_util.h"

namespace wflog {
namespace {

using server::CacheOptions;
using server::CacheStats;
using server::FlatResult;
using server::ResultCache;

std::shared_ptr<const FlatResult> complete_result() {
  QueryResult r;
  r.parsed = Pattern::atom("a");
  r.executed = r.parsed;
  return std::make_shared<const FlatResult>(FlatResult::from(r));
}

RunLimits limits_of(std::int64_t deadline_ms, std::size_t max_incidents) {
  RunLimits l;
  l.deadline = std::chrono::milliseconds(deadline_ms);
  l.max_incidents = max_incidents;
  return l;
}

// ----- ResultCache unit tests ---------------------------------------------

TEST(ResultCacheTest, KeySeparatesPatternWhereAndVersion) {
  const Query plain = Query::parse("a -> b");
  const Query grouped = Query::parse("a -> (b)");
  const Query with_where = Query::parse("x:a -> b where x.out.k = 1");
  const Query other_binding = Query::parse("y:a -> b where y.out.k = 1");

  // Canonically equal spellings share a key; the snapshot version splits.
  EXPECT_EQ(ResultCache::key(plain, 1), ResultCache::key(grouped, 1));
  EXPECT_NE(ResultCache::key(plain, 1), ResultCache::key(plain, 2));
  // A where clause changes the key even though the pattern key is equal.
  EXPECT_NE(ResultCache::key(plain, 1), ResultCache::key(with_where, 1));
  // Binding names are invisible to canonical_key but not to the where
  // clause — the fingerprint folds the binding-carrying pattern text in.
  EXPECT_NE(ResultCache::key(with_where, 1),
            ResultCache::key(other_binding, 1));
}

TEST(ResultCacheTest, InsertLookupAndLruEviction) {
  CacheOptions co;
  co.shards = 1;  // deterministic LRU order
  co.max_bytes = 3 * (complete_result()->bytes() + 64);
  ResultCache cache(co);
  const RunLimits unlimited;

  cache.insert("k1", 1, complete_result(), unlimited);
  cache.insert("k2", 1, complete_result(), unlimited);
  EXPECT_NE(cache.lookup("k1", unlimited), nullptr);  // k1 now most recent
  EXPECT_NE(cache.lookup("k2", unlimited), nullptr);
  EXPECT_EQ(cache.lookup("missing", unlimited), nullptr);

  // Fill past the budget: the least recently used entry (k1) goes first.
  cache.insert("k3", 1, complete_result(), unlimited);
  cache.insert("k4", 1, complete_result(), unlimited);
  const CacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, co.max_bytes);
  EXPECT_EQ(cache.lookup("k1", unlimited), nullptr);
  EXPECT_NE(cache.lookup("k4", unlimited), nullptr);
}

TEST(ResultCacheTest, RefusesIncompleteResults) {
  CacheOptions co;
  co.max_bytes = 1 << 20;
  ResultCache cache(co);
  const RunLimits unlimited;

  auto truncated = std::make_shared<FlatResult>(*complete_result());
  truncated->stop_reason = StopReason::kDeadline;
  cache.insert("deadline", 1, truncated, unlimited);

  auto budget = std::make_shared<FlatResult>(*complete_result());
  budget->stop_reason = StopReason::kIncidentBudget;
  cache.insert("budget", 1, budget, unlimited);

  auto failed = std::make_shared<FlatResult>(*complete_result());
  failed->error = "boom";
  cache.insert("error", 1, failed, unlimited);

  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.lookup("deadline", unlimited), nullptr);
  EXPECT_EQ(cache.lookup("budget", unlimited), nullptr);
  EXPECT_EQ(cache.lookup("error", unlimited), nullptr);
}

TEST(ResultCacheTest, TighterLimitsAreNotServedFromCache) {
  CacheOptions co;
  co.max_bytes = 1 << 20;
  ResultCache cache(co);

  // Stored under a 100ms / 50-incident budget.
  cache.insert("k", 1, complete_result(), limits_of(100, 50));

  // Equal or looser budgets may be served...
  EXPECT_NE(cache.lookup("k", limits_of(100, 50)), nullptr);
  EXPECT_NE(cache.lookup("k", limits_of(500, 100)), nullptr);
  EXPECT_NE(cache.lookup("k", limits_of(0, 0)), nullptr);  // unlimited
  // ...tighter ones on either dimension must re-evaluate.
  EXPECT_EQ(cache.lookup("k", limits_of(50, 50)), nullptr);
  EXPECT_EQ(cache.lookup("k", limits_of(100, 10)), nullptr);
  EXPECT_GT(cache.stats().limit_rejects, 0u);

  // An entry produced WITHOUT limits (0 = unlimited) serves unlimited
  // requests, but a request that asks for ANY finite budget is tighter
  // than unlimited: it owes the caller its own possibly-truncated run.
  cache.insert("u", 1, complete_result(), limits_of(0, 0));
  EXPECT_NE(cache.lookup("u", limits_of(0, 0)), nullptr);
  EXPECT_EQ(cache.lookup("u", limits_of(1, 1)), nullptr);

  // The limit check never mutates the entry — the stored pair is intact.
  EXPECT_NE(cache.lookup("k", limits_of(100, 50)), nullptr);
}

TEST(ResultCacheTest, DisabledCacheNeverStores) {
  ResultCache cache(CacheOptions{});  // max_bytes = 0
  EXPECT_FALSE(cache.enabled());
  cache.insert("k", 1, complete_result(), RunLimits{});
  EXPECT_EQ(cache.lookup("k", RunLimits{}), nullptr);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ResultCacheTest, BytesAreTheSumOfEntrySizesWithinBudget) {
  // Real answers of different sizes, inserted until the LRU evicts.
  const Log log = testing::make_log(
      "a b c d ; d c b a ; a c b d ; a b d c ; a a b b ; c c d d");
  const QueryEngine engine(log);
  std::vector<std::shared_ptr<const FlatResult>> answers;
  for (const char* q : {"a -> b", "b | c", "a & d", "!b", "a", "c -> d"}) {
    answers.push_back(
        std::make_shared<const FlatResult>(FlatResult::from(engine.run(q))));
  }
  CacheOptions co;
  co.shards = 2;
  co.max_bytes = 3 * (answers[0]->bytes() + 64);
  ResultCache cache(co);
  const RunLimits unlimited;

  std::vector<std::string> keys;
  for (int round = 0; round < 4; ++round) {
    for (const auto& answer : answers) {
      keys.push_back("k" + std::to_string(keys.size()));
      cache.insert(keys.back(), 1, answer, unlimited);
      std::size_t sum = 0;
      for (const std::string& k : keys) {
        if (const auto entry = cache.peek(k, nullptr)) {
          sum += ResultCache::entry_bytes(k, *entry);
        }
      }
      const CacheStats s = cache.stats();
      EXPECT_EQ(s.bytes, sum);
      EXPECT_LE(s.bytes, co.max_bytes);
    }
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ResultCacheTest, PurgeDropsOlderVersionsAndRefusesThemLater) {
  CacheOptions co;
  co.max_bytes = 1 << 20;
  ResultCache cache(co);
  const RunLimits unlimited;
  cache.insert("a@1", 1, complete_result(), unlimited);
  cache.insert("b@1", 1, complete_result(), unlimited);
  cache.insert("a@2", 2, complete_result(), unlimited);

  cache.purge_below(2);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.purged, 2u);
  EXPECT_EQ(s.bytes, ResultCache::entry_bytes("a@2", *complete_result()));
  EXPECT_EQ(cache.lookup("a@1", unlimited), nullptr);
  EXPECT_NE(cache.lookup("a@2", unlimited), nullptr);

  // A reader still on snapshot 1 cannot re-add its answer.
  cache.insert("c@1", 1, complete_result(), unlimited);
  EXPECT_EQ(cache.peek("c@1", nullptr), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ----- FlatResult ---------------------------------------------------------

IncidentSet incident_set(
    const std::vector<std::pair<Wid, std::vector<std::vector<IsLsn>>>>&
        groups) {
  IncidentSet out;
  for (const auto& [wid, incidents] : groups) {
    IncidentList list;
    for (const auto& positions : incidents) {
      Incident o = Incident::singleton(wid, positions.front());
      for (std::size_t i = 1; i < positions.size(); ++i) {
        o = Incident::merged(o, Incident::singleton(wid, positions[i]));
      }
      list.push_back(std::move(o));
    }
    canonicalize(list);
    out.add_group(wid, std::move(list));
  }
  return out;
}

void expect_same_incidents(const FlatResult& a, const FlatResult& b) {
  EXPECT_EQ(a.wids, b.wids);
  EXPECT_EQ(a.group_offsets, b.group_offsets);
  EXPECT_EQ(a.incident_offsets, b.incident_offsets);
  EXPECT_EQ(a.positions, b.positions);
}

TEST(FlatResultTest, FromKeepsGroupAndCanonicalIncidentOrder) {
  QueryResult r;
  r.incidents = incident_set({{2, {{1, 3}, {2, 3}}}, {5, {{4}}}});
  const FlatResult flat = FlatResult::from(r);
  EXPECT_EQ(flat.wids, (std::vector<Wid>{2, 5}));
  EXPECT_EQ(flat.group_offsets, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(flat.incident_offsets, (std::vector<std::size_t>{0, 2, 4, 5}));
  EXPECT_EQ(flat.positions, (std::vector<IsLsn>{1, 3, 2, 3, 4}));
  EXPECT_EQ(flat.total(), r.total());
  EXPECT_EQ(flat.num_groups(), r.incidents.num_groups());
}

TEST(FlatResultTest, MergedEqualsFlatteningTheUnion) {
  QueryResult old;
  old.parsed = Pattern::atom("a");
  old.executed = old.parsed;
  old.eval_us = 42;
  old.incidents = incident_set({{1, {{1, 3}, {2, 3}}}, {3, {{1, 2}}}});
  const FlatResult cached = FlatResult::from(old);

  // The delta lands in the middle of wid 1's group ({1,4} sorts between
  // {1,3} and {2,3}) and at its end, in wid 2 (absent, between two cached
  // groups), in wid 4 (after every group), and on {1,2} of wid 3, which
  // is already cached. It arrives unsorted and with a repeat.
  const IncidentSet fresh = incident_set(
      {{4, {{1, 2}}}, {1, {{2, 4}, {1, 4}}}, {3, {{1, 2}}}, {2, {{5, 6}}}});
  std::vector<const Incident*> delta;
  for (const IncidentSet::Group& g : fresh.groups()) {
    for (const Incident& o : g.incidents) delta.push_back(&o);
  }
  delta.push_back(delta.front());
  std::reverse(delta.begin(), delta.end());

  QueryResult expect;
  expect.incidents =
      incident_set({{1, {{1, 3}, {1, 4}, {2, 3}, {2, 4}}},
                    {2, {{5, 6}}},
                    {3, {{1, 2}}},
                    {4, {{1, 2}}}});
  const FlatResult merged = FlatResult::merged(cached, delta);
  expect_same_incidents(merged, FlatResult::from(expect));
  EXPECT_EQ(merged.pattern, cached.pattern);
  EXPECT_EQ(merged.eval_us, cached.eval_us);

  // An empty delta is a copy; a delta of cached incidents changes nothing.
  expect_same_incidents(FlatResult::merged(cached, {}), cached);
  std::vector<const Incident*> repeats;
  for (const IncidentSet::Group& g : old.incidents.groups()) {
    for (const Incident& o : g.incidents) repeats.push_back(&o);
  }
  expect_same_incidents(FlatResult::merged(cached, repeats), cached);
}

// ----- differential suite: cache on vs cache off --------------------------

struct TestServer {
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::HttpServer> http;

  explicit TestServer(std::optional<Log> log,
                      server::ServiceOptions svc = {},
                      server::ServerOptions opts = {}) {
    opts.port = 0;
    service = std::make_unique<server::QueryService>(
        std::move(log), std::move(svc), opts.drain_cancel, std::nullopt);
    server::Router router;
    service->bind(router);
    http = std::make_unique<server::HttpServer>(std::move(router),
                                                std::move(opts));
    service->attach_server(http.get());
    http->start();
  }

  ~TestServer() {
    if (http != nullptr) http->shutdown();
  }

  server::HttpClient client() const {
    return server::HttpClient("127.0.0.1", http->port());
  }
};

server::ServiceOptions cached_options(std::size_t bytes = 16 << 20) {
  server::ServiceOptions svc;
  svc.cache_bytes = bytes;
  return svc;
}

Log dual_log() {
  return testing::make_log("a b c d ; d c b a ; a c b d ; a b d c");
}

/// Strips the blocks that are volatile even without a cache (wall-clock
/// timings; the /batch stats describe the pass that actually executed) and
/// re-serializes. Everything kept must be byte-identical cache-on vs off.
std::string normalized(const std::string& body) {
  server::JsonValue v = server::parse_json(body);
  auto strip = [](server::JsonValue& obj) {
    auto& m = obj.members();
    for (auto it = m.begin(); it != m.end();) {
      if (it->first == "timings" || it->first == "stats") {
        it = m.erase(it);
      } else {
        ++it;
      }
    }
  };
  strip(v);
  if (server::JsonValue* results =
          const_cast<server::JsonValue*>(v.find("results"))) {
    for (server::JsonValue& slot : results->as_array()) strip(slot);
  }
  return v.dump();
}

const std::vector<std::string>& query_stream() {
  static const std::vector<std::string> queries = {
      "a -> b",
      "a -> (b)",        // canonically equal respelling
      "(a -> b)",        // another
      "a . b",
      "b | c",
      "c | b",           // commuted
      "a & d",
      "!b",
      "a -> b",          // repeats — the cache's bread and butter
      "b | c",
      "x:a -> y:b where x.out.k = y.in.k",
      "z:a -> y:b where z.out.k = y.in.k",  // binding renamed
      "x:a -> b where x.out.k = 1",
      "a -> b",
  };
  return queries;
}

TEST(CacheDifferentialTest, QueryStreamBitIdentical) {
  TestServer off(dual_log());
  TestServer on(dual_log(), cached_options());
  server::HttpClient c_off = off.client();
  server::HttpClient c_on = on.client();

  for (const std::string& q : query_stream()) {
    server::JsonValue body;
    body.set("query", q);
    const server::ClientResponse a = c_off.post("/query", body.dump());
    const server::ClientResponse b = c_on.post("/query", body.dump());
    ASSERT_EQ(a.status, b.status) << q;
    EXPECT_EQ(normalized(a.body), normalized(b.body)) << q;
    // The cached server declares itself; the uncached one stays silent.
    EXPECT_EQ(a.header("x-wfq-cache"), nullptr);
    ASSERT_NE(b.header("x-wfq-cache"), nullptr);
  }

  // The repeats actually hit: re-issue the first query and check.
  server::JsonValue body;
  body.set("query", query_stream()[0]);
  const server::ClientResponse again = c_on.post("/query", body.dump());
  ASSERT_NE(again.header("x-wfq-cache"), nullptr);
  EXPECT_EQ(*again.header("x-wfq-cache"), "hit");
}

TEST(CacheDifferentialTest, CanonicalRespellingHitsTheSameEntry) {
  TestServer on(dual_log(), cached_options());
  server::HttpClient c = on.client();
  ASSERT_EQ(c.post("/query", R"({"query": "b | c"})").status, 200);
  const server::ClientResponse r = c.post("/query", R"({"query": "c | b"})");
  ASSERT_NE(r.header("x-wfq-cache"), nullptr);
  EXPECT_EQ(*r.header("x-wfq-cache"), "hit");
  // ...and the hit is transparent: the "pattern" echo shows THIS
  // request's spelling (not the populating "b | c"), and the answer
  // equals a fresh evaluation's.
  const server::JsonValue v = server::parse_json(r.body);
  EXPECT_EQ(v.find("pattern")->as_string(), "c | b");
  const Log log = dual_log();
  const QueryEngine engine(log);
  EXPECT_EQ(v.find("total")->as_int(),
            static_cast<std::int64_t>(engine.run("c | b").total()));
}

TEST(CacheDifferentialTest, BatchStreamBitIdentical) {
  TestServer off(dual_log());
  TestServer on(dual_log(), cached_options());
  server::HttpClient c_off = off.client();
  server::HttpClient c_on = on.client();

  const std::string batch = R"({"queries": ["a -> b", "b | c",
      "this does not parse ((", "a & d", "a -> b"], "threads": 2})";
  for (int round = 0; round < 3; ++round) {
    const server::ClientResponse a = c_off.post("/batch", batch);
    const server::ClientResponse b = c_on.post("/batch", batch);
    ASSERT_EQ(a.status, 200);
    ASSERT_EQ(b.status, 200);
    EXPECT_EQ(normalized(a.body), normalized(b.body)) << "round " << round;
  }
  // Round 3's slots were all served from cache except the parse error.
  const server::ClientResponse last = c_on.post("/batch", batch);
  const server::JsonValue v = server::parse_json(last.body);
  EXPECT_EQ(v.find("stats")->find("result_cache_hits")->as_int(), 4);
}

TEST(CacheDifferentialTest, IngestBumpsSnapshotVersionAndInvalidates) {
  TestServer off(dual_log());
  TestServer on(dual_log(), cached_options());
  server::HttpClient c_off = off.client();
  server::HttpClient c_on = on.client();

  const std::string q = R"({"query": "a -> b"})";
  const std::string ingest = R"({"events": [
      {"op": "begin"},
      {"op": "record", "wid": 5, "activity": "a"},
      {"op": "record", "wid": 5, "activity": "b"},
      {"op": "end", "wid": 5}]})";

  // Warm the cache, interleave an ingest, re-query: the answer must track
  // the new snapshot on both servers (version-keyed, no stale hit).
  ASSERT_EQ(c_on.post("/query", q).status, 200);
  ASSERT_EQ(c_off.post("/query", q).status, 200);
  ASSERT_EQ(c_on.post("/ingest", ingest).status, 200);
  ASSERT_EQ(c_off.post("/ingest", ingest).status, 200);

  const server::ClientResponse a = c_off.post("/query", q);
  const server::ClientResponse b = c_on.post("/query", q);
  EXPECT_EQ(normalized(a.body), normalized(b.body));
  ASSERT_NE(b.header("x-wfq-cache"), nullptr);
  EXPECT_EQ(*b.header("x-wfq-cache"), "miss");  // old entry is for v1
  EXPECT_EQ(server::parse_json(b.body).find("total")->as_int(),
            server::parse_json(a.body).find("total")->as_int());

  // And the new snapshot's entry serves repeats.
  const server::ClientResponse again = c_on.post("/query", q);
  EXPECT_EQ(*again.header("x-wfq-cache"), "hit");
  EXPECT_EQ(normalized(again.body), normalized(a.body));
}

TEST(CacheDifferentialTest, EightConcurrentClientsStayIdentical) {
  TestServer off(dual_log());
  server::ServerOptions opts;
  opts.threads = 4;
  TestServer on(dual_log(), cached_options(), opts);

  // Reference answers from the uncached server, sequentially.
  std::vector<std::string> expect;
  {
    server::HttpClient c = off.client();
    for (const std::string& q : query_stream()) {
      server::JsonValue body;
      body.set("query", q);
      expect.push_back(normalized(c.post("/query", body.dump()).body));
    }
  }

  constexpr int kClients = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      server::HttpClient c = on.client();
      for (int round = 0; round < 3; ++round) {
        // Different starting offset per client: hits and misses race.
        for (std::size_t i = 0; i < query_stream().size(); ++i) {
          const std::size_t at =
              (i + static_cast<std::size_t>(t)) % query_stream().size();
          server::JsonValue body;
          body.set("query", query_stream()[at]);
          const server::ClientResponse r =
              c.post("/query", body.dump());
          if (r.status != 200 || normalized(r.body) != expect[at]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(CacheDifferentialTest, TruncatedRunsAreNeverCached) {
  // Force deterministic truncation with an incident budget of 1 on a
  // query that has more than one incident.
  TestServer off(dual_log());
  TestServer on(dual_log(), cached_options());
  server::HttpClient c_off = off.client();
  server::HttpClient c_on = on.client();

  const std::string limited =
      R"({"query": "b | c", "max_incidents": 1})";
  for (int round = 0; round < 3; ++round) {
    const server::ClientResponse a = c_off.post("/query", limited);
    const server::ClientResponse b = c_on.post("/query", limited);
    ASSERT_EQ(a.status, 200);
    ASSERT_EQ(b.status, 200);
    EXPECT_EQ(normalized(a.body), normalized(b.body));
    const server::JsonValue v = server::parse_json(b.body);
    EXPECT_FALSE(v.find("complete")->as_bool());
    EXPECT_EQ(v.find("stop_reason")->as_string(), "incident-budget");
    // Truncated runs never enter the cache: every round is a miss.
    ASSERT_NE(b.header("x-wfq-cache"), nullptr);
    EXPECT_EQ(*b.header("x-wfq-cache"), "miss");
  }
  // /stats agrees: nothing was inserted.
  const server::JsonValue stats =
      server::parse_json(c_on.get("/stats").body);
  ASSERT_NE(stats.find("cache"), nullptr);
  EXPECT_EQ(stats.find("cache")->find("insertions")->as_int(), 0);

  // Now cache the COMPLETE answer, then ask with the tight budget again:
  // the complete entry must NOT satisfy the limited request.
  ASSERT_EQ(c_on.post("/query", R"({"query": "b | c"})").status, 200);
  const server::ClientResponse after = c_on.post("/query", limited);
  EXPECT_EQ(*after.header("x-wfq-cache"), "miss");
  EXPECT_EQ(server::parse_json(after.body).find("stop_reason")->as_string(),
            "incident-budget");
  EXPECT_EQ(normalized(after.body),
            normalized(c_off.post("/query", limited).body));
}

TEST(CacheDifferentialTest, NoCacheHeaderBypassesLookupButStillStores) {
  TestServer on(dual_log(), cached_options());
  server::HttpClient c = on.client();
  const std::string body = R"({"query": "a -> b"})";
  const server::HttpClient::Headers no_cache = {
      {"cache-control", "no-cache"}};

  // First request stores; a no-cache repeat re-evaluates (miss) but the
  // store stays warm for the next normal request.
  ASSERT_EQ(c.post("/query", body, "application/json").status, 200);
  const server::ClientResponse bypass =
      c.post("/query", body, "application/json", no_cache);
  ASSERT_NE(bypass.header("x-wfq-cache"), nullptr);
  EXPECT_EQ(*bypass.header("x-wfq-cache"), "miss");
  const server::ClientResponse warm = c.post("/query", body);
  EXPECT_EQ(*warm.header("x-wfq-cache"), "hit");
}

// ----- hits render from the flat entry ------------------------------------
// Each hit below is compared byte for byte (timings and batch stats
// stripped) with a Cache-Control: no-cache evaluation of the same request
// on the same server.

const server::HttpClient::Headers& no_cache_header() {
  static const server::HttpClient::Headers h = {{"cache-control", "no-cache"}};
  return h;
}

TEST(CacheFlatRenderTest, TruncatedRenderOfAHitMatchesAFreshEvaluation) {
  TestServer on(dual_log(), cached_options());
  server::HttpClient c = on.client();
  const std::string body = R"({"query": "b | c", "limit": 3})";
  ASSERT_EQ(c.post("/query", body).status, 200);  // populates
  const server::ClientResponse hit = c.post("/query", body);
  ASSERT_NE(hit.header("x-wfq-cache"), nullptr);
  EXPECT_EQ(*hit.header("x-wfq-cache"), "hit");
  const server::JsonValue v = server::parse_json(hit.body);
  EXPECT_TRUE(v.find("render_truncated")->as_bool());
  EXPECT_EQ(v.find("rendered")->as_int(), 3);
  EXPECT_GT(v.find("total")->as_int(), 3);
  const server::ClientResponse fresh =
      c.post("/query", body, "application/json", no_cache_header());
  EXPECT_EQ(*fresh.header("x-wfq-cache"), "miss");
  EXPECT_EQ(normalized(hit.body), normalized(fresh.body));
}

/// The chunks of a streamed /query, each normalized (the tail's timings).
std::vector<std::string> stream_chunks(
    server::HttpClient& c, const std::string& body,
    const server::HttpClient::Headers& extra, std::string* cache_header) {
  std::vector<std::string> chunks;
  const server::ClientResponse head = c.stream(
      "POST", "/query", body,
      [&](std::string_view chunk) {
        chunks.push_back(normalized(std::string(chunk)));
        return true;
      },
      extra);
  EXPECT_EQ(head.status, 200);
  if (head.header("x-wfq-cache") != nullptr) {
    *cache_header = *head.header("x-wfq-cache");
  }
  return chunks;
}

TEST(CacheFlatRenderTest, StreamedHitMatchesAFreshEvaluation) {
  TestServer on(dual_log(), cached_options());
  server::HttpClient c = on.client();
  // Populated by one spelling, streamed by another: the hit re-echoes
  // this request's pattern text.
  ASSERT_EQ(c.post("/query", R"({"query": "b | c"})").status, 200);
  for (const char* body :
       {R"({"query": "c | b", "stream": true})",
        R"({"query": "c | b", "stream": true, "limit": 3})"}) {
    std::string hit_header;
    std::string fresh_header;
    const std::vector<std::string> hit =
        stream_chunks(c, body, {}, &hit_header);
    const std::vector<std::string> fresh =
        stream_chunks(c, body, no_cache_header(), &fresh_header);
    EXPECT_EQ(hit_header, "hit") << body;
    EXPECT_EQ(fresh_header, "miss") << body;
    ASSERT_GE(hit.size(), 3u) << body;  // head, a group, tail
    EXPECT_EQ(hit, fresh) << body;
  }
}

TEST(CacheFlatRenderTest, BatchOfHitsMissesAndAnErrorMatchesAFreshBatch) {
  TestServer on(dual_log(), cached_options());
  server::HttpClient c = on.client();
  ASSERT_EQ(c.post("/query", R"({"query": "a -> b"})").status, 200);
  ASSERT_EQ(c.post("/query", R"({"query": "a & d"})").status, 200);

  const std::string batch = R"j({"queries": ["a -> (b)", "b | c",
      "this does not parse ((", "d & a", "!b"], "limit": 2})j";
  const server::ClientResponse mixed = c.post("/batch", batch);
  ASSERT_EQ(mixed.status, 200);
  EXPECT_EQ(*mixed.header("x-wfq-cache"), "miss");  // not every slot hit
  const server::JsonValue v = server::parse_json(mixed.body);
  EXPECT_EQ(v.find("stats")->find("result_cache_hits")->as_int(), 2);
  EXPECT_EQ(v.find("stats")->find("result_cache_misses")->as_int(), 2);
  ASSERT_NE(v.find("results")->as_array()[2].find("error"), nullptr);

  const server::ClientResponse fresh =
      c.post("/batch", batch, "application/json", no_cache_header());
  ASSERT_EQ(fresh.status, 200);
  EXPECT_EQ(normalized(mixed.body), normalized(fresh.body));
}

TEST(CacheStatsTest, StatsEndpointExposesCacheCounters) {
  TestServer on(dual_log(), cached_options());
  server::HttpClient c = on.client();
  ASSERT_EQ(c.post("/query", R"({"query": "a -> b"})").status, 200);
  ASSERT_EQ(c.post("/query", R"({"query": "a -> b"})").status, 200);
  const server::JsonValue v = server::parse_json(c.get("/stats").body);
  const server::JsonValue* cache = v.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->find("enabled")->as_bool());
  EXPECT_GE(cache->find("hits")->as_int(), 1);
  EXPECT_GE(cache->find("insertions")->as_int(), 1);
  EXPECT_GT(cache->find("bytes")->as_int(), 0);
  EXPECT_GT(v.find("snapshot_version")->as_int(), 0);

  // Cache off: /stats says so (null block) and no header is emitted.
  TestServer off(dual_log());
  server::HttpClient c_off = off.client();
  const server::JsonValue v_off =
      server::parse_json(c_off.get("/stats").body);
  ASSERT_NE(v_off.find("cache"), nullptr);
  EXPECT_TRUE(v_off.find("cache")->is_null());
}

}  // namespace
}  // namespace wflog
