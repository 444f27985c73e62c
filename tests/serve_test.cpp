// Tests for the serve subsystem: JSON wire format, request
// canonicalization, the sharded LRU result cache, the SweepService
// (hit-equals-miss bit-equality, single-flight, concurrent-client
// determinism — the TSan job runs Serve*), persistent workers, and the
// stream/socket front ends.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "smilab/apps/convolve/workload.h"
#include "smilab/apps/unixbench/unixbench.h"
#include "smilab/serve/request.h"
#include "smilab/serve/result_cache.h"
#include "smilab/serve/server.h"
#include "smilab/serve/service.h"
#include "smilab/serve/wire.h"

namespace smilab::serve {
namespace {

// --- Wire format ------------------------------------------------------------

TEST(ServeWire, ParsesScalarsObjectsAndArrays) {
  std::string error;
  const auto v = parse_json(
      R"( {"a": 1.5, "b": [true, null, "x\n\"y"], "neg": -3} )", &error);
  ASSERT_TRUE(v.has_value()) << error;
  ASSERT_EQ(v->type, JsonValue::Type::kObject);
  ASSERT_EQ(v->members.size(), 3u);
  EXPECT_EQ(v->members[0].first, "a");  // wire order preserved
  EXPECT_EQ(v->find("a")->number, 1.5);
  const JsonValue* b = v->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->elements.size(), 3u);
  EXPECT_TRUE(b->elements[0].boolean);
  EXPECT_EQ(b->elements[1].type, JsonValue::Type::kNull);
  EXPECT_EQ(b->elements[2].string, "x\n\"y");
  EXPECT_EQ(v->find("neg")->as_int(-10, 10).value_or(99), -3);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(ServeWire, RejectsMalformedDocuments) {
  std::string error;
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1}extra", "\"unterminated",
        "{\"a\" 1}", "nul", "1e999", "{\"a\":\"\\q\"}"}) {
    EXPECT_FALSE(parse_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ServeWire, AsIntRejectsFractionsAndOutOfRange) {
  std::string error;
  const auto v = parse_json(R"({"f": 1.5, "big": 4096})", &error);
  ASSERT_TRUE(v.has_value());
  EXPECT_FALSE(v->find("f")->as_int(0, 10).has_value());
  EXPECT_FALSE(v->find("big")->as_int(0, 10).has_value());
  EXPECT_TRUE(v->find("big")->as_int(0, 1 << 20).has_value());
  // INT64_MAX is 2^63 as a double, one past every int64: reject it rather
  // than convert it out of range, which is undefined.
  const auto edges = parse_json(
      R"({"max": 9223372036854775807, "min": -9223372036854775808})", &error);
  ASSERT_TRUE(edges.has_value());
  EXPECT_FALSE(edges->find("max")->as_int(0, INT64_MAX).has_value());
  EXPECT_EQ(edges->find("min")->as_int(INT64_MIN, 0), INT64_MIN);
}

TEST(ServeWire, WriterRoundTripsDoublesExactly) {
  JsonWriter w;
  w.begin_object();
  w.field("x", 0.013652880000000001);
  w.field("s", "a\"b\\c\n");
  w.end_object();
  const std::string text = w.take();
  std::string error;
  const auto v = parse_json(text, &error);
  ASSERT_TRUE(v.has_value()) << text << ": " << error;
  EXPECT_EQ(v->find("x")->number, 0.013652880000000001);  // %.17g round-trip
  EXPECT_EQ(v->find("s")->string, "a\"b\\c\n");
}

TEST(ServeWire, ParsesUnicodeEscapes) {
  std::string error;
  const auto v = parse_json(
      R"(["\u0041\u00e9\u20AC", "\ud83d\ude00", "a\u0000b"])", &error);
  ASSERT_TRUE(v.has_value()) << error;
  ASSERT_EQ(v->elements.size(), 3u);
  EXPECT_EQ(v->elements[0].string, "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(v->elements[1].string, "\xF0\x9F\x98\x80");  // surrogate pair
  EXPECT_EQ(v->elements[2].string, std::string("a\0b", 3));
  for (const char* bad : {R"("\u12")", R"("\uzzzz")", R"("\ud800")",
                          R"("\ud800x")", R"("\udc00")",
                          R"("\ud800A")"}) {
    error.clear();
    EXPECT_FALSE(parse_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ServeWire, EscapeKeepsAnyBytesValidUtf8) {
  // Well-formed UTF-8 of every length passes unchanged.
  const std::string valid = "a\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80";
  EXPECT_EQ(json_escape(valid), valid);
  // Each byte of an ill-formed sequence becomes \ufffd: bytes UTF-8 never
  // uses, a stray continuation byte, an overlong '/', the surrogate
  // U+D800, a code point past U+10FFFF and a truncated sequence.
  EXPECT_EQ(json_escape("\xFF\xFE"), "\\ufffd\\ufffd");
  EXPECT_EQ(json_escape("x\x80y"), "x\\ufffdy");
  EXPECT_EQ(json_escape("\xC0\xAF"), "\\ufffd\\ufffd");
  EXPECT_EQ(json_escape("\xED\xA0\x80"), "\\ufffd\\ufffd\\ufffd");
  EXPECT_EQ(json_escape("\xF4\x90\x80\x80"),
            "\\ufffd\\ufffd\\ufffd\\ufffd");
  EXPECT_EQ(json_escape("\xE2\x82"
                        "z"),
            "\\ufffd\\ufffdz");
  // The reader decodes what the writer emits: valid characters round-trip
  // and each bad byte reads back as U+FFFD.
  std::string error;
  const auto v =
      parse_json("\"" + json_escape(valid + "\xFF") + "\"", &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->string, valid + "\xEF\xBF\xBD");
}

// --- Request canonicalization ----------------------------------------------

ExperimentRequest parse_ok(const std::string& json) {
  std::string error;
  const auto doc = parse_json(json, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  const auto req = ExperimentRequest::parse(*doc, &error);
  EXPECT_TRUE(req.has_value()) << json << ": " << error;
  return req.value_or(ExperimentRequest{});
}

std::string parse_error(const std::string& json) {
  std::string error;
  const auto doc = parse_json(json, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  const auto req = ExperimentRequest::parse(*doc, &error);
  EXPECT_FALSE(req.has_value()) << json;
  return error;
}

TEST(ServeRequest, CanonicalJsonParsesToTheSameKey) {
  // The echoed config is itself a valid request: no dead gap without SMIs,
  // and NAS workloads in the schema's lowercase.
  for (const char* line :
       {R"({"experiment":"unixbench","smi":"none","gap_ms":7})",
        R"({"experiment":"nas","workload":"bt","nodes":4,"seed":3})"}) {
    const ExperimentRequest req = parse_ok(line);
    EXPECT_EQ(parse_ok(req.canonical_json()).canonical_key(),
              req.canonical_key())
        << req.canonical_json();
  }
}

TEST(ServeRequest, SemanticallyEqualConfigsCollide) {
  // Key order, whitespace, and spelled-out defaults must not split keys.
  const auto a = parse_ok(
      R"({"experiment":"ring","nodes":3,"iters":20,"bytes":1024,"seed":7})");
  const auto b = parse_ok(
      R"({ "iters": 20, "bytes": 1024, "seed": 7,
           "experiment": "ring", "nodes": 3, "smi": "long",
           "gap_ms": 1000 })");
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
  EXPECT_EQ(a.canonical_json(), b.canonical_json());
}

TEST(ServeRequest, DistinctConfigsGetDistinctKeys) {
  const char* variants[] = {
      R"({"experiment":"ring"})",
      R"({"experiment":"ring","nodes":5})",
      R"({"experiment":"ring","iters":100})",
      R"({"experiment":"ring","bytes":64})",
      R"({"experiment":"ring","seed":2})",
      R"({"experiment":"ring","smi":"short"})",
      R"({"experiment":"ring","smi":"none"})",
      R"({"experiment":"ring","gap_ms":500})",
      R"({"experiment":"nas"})",
      R"({"experiment":"nas","workload":"ft","nodes":4})",
      R"({"experiment":"convolve"})",
      R"({"experiment":"convolve","case":"cf"})",
      R"({"experiment":"unixbench"})",
      R"({"experiment":"unixbench","cpus":4})",
  };
  std::vector<std::uint64_t> keys;
  for (const char* v : variants) keys.push_back(parse_ok(v).canonical_key());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j])
          << variants[i] << " vs " << variants[j];
    }
  }
}

TEST(ServeRequest, GapIsFoldedWhenSmisAreOff) {
  // With smi=none the gap is dead configuration: both must hit one entry.
  const auto a = parse_ok(R"({"experiment":"ring","smi":"none"})");
  const auto b = parse_ok(
      R"({"experiment":"ring","smi":"none","gap_ms":50})");
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
}

TEST(ServeRequest, UnknownAndCrossKindFieldsAreRejected) {
  EXPECT_NE(parse_error(R"({"experiment":"ring","nodez":3})").find("nodez"),
            std::string::npos);
  // A nas-only field on a ring request is unknown, not silently ignored.
  EXPECT_NE(parse_error(R"({"experiment":"ring","htt":true})").find("htt"),
            std::string::npos);
  EXPECT_FALSE(parse_error(R"({"experiment":"warp"})").empty());
  EXPECT_FALSE(parse_error(R"({"nodes":3})").empty());  // missing kind
  EXPECT_FALSE(parse_error(R"({"experiment":"ring","nodes":1})").empty());
  EXPECT_FALSE(
      parse_error(R"({"experiment":"ring","iters":2.5})").empty());
  EXPECT_FALSE(
      parse_error(R"({"experiment":"nas","workload":"bt","nodes":2})")
          .empty());  // BT needs a square rank count
}

TEST(ServeRequest, ControlOpsParse) {
  std::string error;
  const auto stats = parse_request_line(R"({"op":"stats"})", &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->op, RequestLine::Op::kStats);
  const auto ping = parse_request_line(R"({"op":"ping"})", &error);
  ASSERT_TRUE(ping.has_value()) << error;
  EXPECT_EQ(ping->op, RequestLine::Op::kPing);
  EXPECT_FALSE(parse_request_line(R"({"op":"dance"})", &error).has_value());
  EXPECT_FALSE(
      parse_request_line(R"({"op":"stats","x":1})", &error).has_value());
}

// --- Result cache -----------------------------------------------------------

TEST(ServeCache, LookupReturnsInsertedBytes) {
  ResultCache cache{1 << 20, 4};
  EXPECT_EQ(cache.lookup(42), nullptr);
  cache.insert(42, "payload-42");
  const auto hit = cache.lookup(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "payload-42");
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.insertions, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.bytes, 10);
}

TEST(ServeCache, FirstWriteWinsOnDuplicateInsert) {
  ResultCache cache{1 << 20, 1};
  const auto first = cache.insert(7, "first");
  const auto second = cache.insert(7, "second");
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(*cache.lookup(7), "first");
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(ServeCache, TinyBudgetEvictsLeastRecentlyUsed) {
  // One shard, budget for ~2 of the 10-byte payloads.
  ResultCache cache{20, 1};
  cache.insert(1, std::string(10, 'a'));
  cache.insert(2, std::string(10, 'b'));
  ASSERT_NE(cache.lookup(1), nullptr);  // refresh 1: LRU order is now 1, 2
  cache.insert(3, std::string(10, 'c'));
  EXPECT_EQ(cache.lookup(2), nullptr);  // 2 was coldest -> evicted
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 2);
  EXPECT_LE(s.bytes, 20);
}

TEST(ServeCache, SoleOversizedEntryIsRetained) {
  ResultCache cache{4, 1};  // budget smaller than any payload
  cache.insert(1, std::string(100, 'x'));
  EXPECT_NE(cache.lookup(1), nullptr);  // never evict down to empty
  cache.insert(2, std::string(100, 'y'));
  EXPECT_NE(cache.lookup(2), nullptr);
  EXPECT_EQ(cache.lookup(1), nullptr);  // but one oversized evicts another
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(ServeCache, EvictedEntryStaysAliveForHolders) {
  ResultCache cache{4, 1};
  const auto held = cache.insert(1, "still-here");
  cache.insert(2, std::string(50, 'z'));  // evicts key 1
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(*held, "still-here");  // shared_ptr keeps the bytes alive
}

// --- Service ----------------------------------------------------------------

ExperimentRequest small_ring(std::uint64_t seed = 11) {
  ExperimentRequest req;
  req.kind = ExperimentKind::kRing;
  req.ring_nodes = 3;
  req.ring_iters = 10;
  req.ring_bytes = 2048;
  req.smi = SmiKind::kLong;
  req.gap_ms = 1000;
  req.seed = seed;
  return req;
}

TEST(ServeService, HitEqualsMissBitEquality) {
  ServiceConfig cfg;
  cfg.workers = 2;
  SweepService service{cfg};
  const auto miss = service.serve(small_ring());
  ASSERT_TRUE(miss.ok) << miss.error;
  EXPECT_FALSE(miss.cached);
  const auto hit = service.serve(small_ring());
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(*miss.payload, *hit.payload);       // bit-identical bytes
  EXPECT_EQ(miss.payload.get(), hit.payload.get());  // same resident entry
  EXPECT_EQ(miss.key, hit.key);
  // And both equal a from-scratch computation on this thread (the cached
  // bytes are exactly what a fresh simulation renders).
  EXPECT_EQ(*hit.payload, run_experiment_payload(small_ring()));
}

TEST(ServeService, DistinctSeedsMissIndependently) {
  ServiceConfig cfg;
  cfg.workers = 2;
  SweepService service{cfg};
  const auto a = service.serve(small_ring(1));
  const auto b = service.serve(small_ring(2));
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_FALSE(a.cached);
  EXPECT_FALSE(b.cached);
  EXPECT_NE(a.key, b.key);
  EXPECT_EQ(service.stats().simulations, 2);
}

TEST(ServeService, TinyBudgetEvictionForcesResimulation) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_bytes = 1;  // every shard holds at most its newest entry
  cfg.cache_shards = 1;
  SweepService service{cfg};
  ASSERT_FALSE(service.serve(small_ring(1)).cached);
  EXPECT_TRUE(service.serve(small_ring(1)).cached);  // sole entry retained
  ASSERT_FALSE(service.serve(small_ring(2)).cached);  // evicts seed 1
  const auto again = service.serve(small_ring(1));
  EXPECT_FALSE(again.cached);  // genuinely re-simulated
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(service.stats().cache.evictions, 2);
  EXPECT_EQ(service.stats().simulations, 3);
}

TEST(ServeService, ConcurrentClientsGetIdenticalBytes) {
  // Many clients, two distinct keys, hammered concurrently: every response
  // for a key must carry the same bytes, and single-flight must coalesce
  // the duplicate misses (run under TSan in CI).
  ServiceConfig cfg;
  cfg.workers = 4;
  SweepService service{cfg};
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::string> bytes_by_seed[2];
  std::mutex mu;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const int which = (t + r) % 2;
        const auto served =
            service.serve(small_ring(static_cast<std::uint64_t>(which)));
        ASSERT_TRUE(served.ok) << served.error;
        const std::lock_guard<std::mutex> lock{mu};
        bytes_by_seed[which].push_back(*served.payload);
      }
    });
  }
  for (auto& c : clients) c.join();
  for (const auto& all : bytes_by_seed) {
    ASSERT_FALSE(all.empty());
    for (const auto& b : all) EXPECT_EQ(b, all.front());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kRounds);
  EXPECT_EQ(stats.simulations, 2);  // one per key, everything else reused
  EXPECT_EQ(stats.errors, 0);
}

TEST(ServeService, ServeLineEnvelopesAndErrors) {
  ServiceConfig cfg;
  cfg.workers = 1;
  SweepService service{cfg};
  const std::string ok = service.serve_line(
      R"({"experiment":"ring","nodes":3,"iters":5,"bytes":256,"seed":3})");
  EXPECT_NE(ok.find(R"("ok":true)"), std::string::npos) << ok;
  EXPECT_NE(ok.find(R"("cached":false)"), std::string::npos) << ok;
  EXPECT_NE(ok.find(R"("result":{"elapsed_s":)"), std::string::npos) << ok;

  const std::string bad = service.serve_line("this is not json");
  EXPECT_NE(bad.find(R"("ok":false)"), std::string::npos) << bad;
  const std::string unknown =
      service.serve_line(R"({"experiment":"ring","warp":9})");
  EXPECT_NE(unknown.find("warp"), std::string::npos) << unknown;
  // An echoed name that is not UTF-8 comes back escaped, so the error line
  // stays JSON.
  EXPECT_EQ(service.serve_line("{\"experiment\":\"\xFF\xFE\"}"),
            R"({"ok":false,"error":"unknown experiment '\ufffd\ufffd'"})");
  EXPECT_EQ(service.serve_line(R"({"op":"ping"})"),
            R"({"ok":true,"op":"ping"})");
  const std::string stats = service.serve_line(R"({"op":"stats"})");
  EXPECT_NE(stats.find(R"("op":"stats")"), std::string::npos) << stats;
  EXPECT_NE(stats.find(R"("cache_byte_budget")"), std::string::npos) << stats;
}

TEST(ServeService, NasRequestServesAndCaches) {
  ServiceConfig cfg;
  cfg.workers = 2;
  SweepService service{cfg};
  ExperimentRequest req;
  req.kind = ExperimentKind::kNas;
  req.nas = NasJobSpec{NasBenchmark::kEP, NasClass::kA, 2, 1};
  req.nas_trials = 1;
  req.smi = SmiKind::kLong;
  req.seed = 2016;
  const auto miss = service.serve(req);
  ASSERT_TRUE(miss.ok) << miss.error;
  const auto hit = service.serve(req);
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(*miss.payload, *hit.payload);
  EXPECT_NE(miss.payload->find("\"slowdown_pct\":"), std::string::npos);
}

/// The text of `field`'s value in a payload: from after `"field":` up to
/// the next top-level `,"` (scalars and flat arrays only).
std::string payload_field(const std::string& payload, const std::string& field) {
  const std::string tag = "\"" + field + "\":";
  const auto at = payload.find(tag);
  if (at == std::string::npos) return {};
  const auto begin = at + tag.size();
  const auto end = payload.find(",\"", begin);
  return payload.substr(begin, end == std::string::npos ? end : end - begin);
}

TEST(ServeService, UnixbenchPayloadPinned) {
  // Captured before SMI-free suites were memoized: the memo must not move
  // a byte of either half of the payload.
  const auto req = parse_ok(
      R"({"experiment":"unixbench","cpus":4,"smi":"long","gap_ms":600,"seed":5})");
  EXPECT_EQ(
      run_experiment_payload(req),
      R"({"base_index":3176.6994643983371,"noisy_index":2701.7026890818047,)"
      R"("delta_pct":-14.952524802546796,"base_scores":[3770.3513281919454,)"
      R"(1527.2727272727273,3376.2057877813504,2600,6400],"noisy_scores":)"
      R"([3213.5419841677076,1300.9387645870484,2862.7994971143307,)"
      R"(2215.7148341223947,5428.0288184088422]})");
}

TEST(ServeService, RingPayloadPinned) {
  // 128 KiB messages take the rendezvous path, so acks flow, and long SMIs
  // every 200 ms pause the NIC servers mid-transfer. Served cold, then on
  // a one-worker service right after a ring of another shape: a worker's
  // earlier requests must not move a byte.
  const ExperimentRequest req = parse_ok(
      R"({"experiment":"ring","nodes":4,"iters":50,"bytes":131072,)"
      R"("smi":"long","gap_ms":200,"seed":5})");
  const std::string pinned =
      R"({"elapsed_s":0.71686805200000003,"smm_stolen_s":0.84692190700000003,)"
      R"("smi_hits":8,"messages":400,"stats_digest":"f32c28a68e4b8d0a"})";
  ServiceConfig cfg;
  cfg.workers = 1;
  SweepService cold{cfg};
  const auto first = cold.serve(req);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(*first.payload, pinned);

  SweepService reused{cfg};
  ASSERT_TRUE(reused
                  .serve(parse_ok(R"({"experiment":"ring","nodes":3,)"
                                  R"("iters":7,"bytes":512,"seed":9})"))
                  .ok);
  const auto after = reused.serve(req);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_FALSE(after.cached);
  EXPECT_EQ(*after.payload, pinned);
}

TEST(ServeService, UnixbenchBaseIsSharedAcrossSeeds) {
  const std::string a = run_experiment_payload(parse_ok(
      R"({"experiment":"unixbench","cpus":1,"smi":"long","seed":11})"));
  const std::string b = run_experiment_payload(parse_ok(
      R"({"experiment":"unixbench","cpus":1,"smi":"long","seed":12})"));
  ASSERT_FALSE(payload_field(a, "base_index").empty()) << a;
  EXPECT_EQ(payload_field(a, "base_index"), payload_field(b, "base_index"));
  EXPECT_EQ(payload_field(a, "base_scores"), payload_field(b, "base_scores"));
}

TEST(ServeService, ConvolvePayloadPinned) {
  // Captured before SMI-free Convolve runs were memoized: the memo must not
  // move a byte of either half of the payload. Six CPUs put HTT siblings
  // online, so the SMI-free half reads the profile's htt_efficiency.
  const auto req = parse_ok(
      R"({"experiment":"convolve","case":"cf","cpus":6,"smi":"long","gap_ms":200,"seed":5})");
  EXPECT_EQ(run_experiment_payload(req),
            R"({"base_s":3.017415771,"noisy_s":5.0343293140000007,)"
            R"("slowdown_pct":66.842414041323067,"smi_hits":96,)"
            R"("smm_stolen_s":10.083006744})");
}

TEST(ServeService, StatsReportProcessWideMemoFills) {
  // 3 CPUs at the default 20 s window is a UnixBench shape no other test
  // computes, so this SMI-free request is its first caller. It simulates
  // one suite, not two: the memo serves its "noisy" half.
  ServiceConfig cfg;
  cfg.workers = 1;
  SweepService service{cfg};
  const std::uint64_t before = unixbench_baselines_computed();
  const std::string ok =
      service.serve_line(R"({"experiment":"unixbench","smi":"none","cpus":3})");
  ASSERT_NE(ok.find(R"("ok":true)"), std::string::npos) << ok;
  EXPECT_EQ(unixbench_baselines_computed(), before + 1);
  EXPECT_EQ(payload_field(ok, "base_index"), payload_field(ok, "noisy_index"));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.unixbench_baselines,
            static_cast<std::int64_t>(before + 1));
  // Convolve's SMI-free half is memoized the same way: once the first
  // request has filled its shape (here or in an earlier test of this
  // process), a second seed computes no new run.
  const auto convolve = [&](const char* seed) {
    const std::string cv = service.serve_line(
        std::string{R"({"experiment":"convolve","case":"cu","cpus":1,)"} +
        R"("smi":"long","gap_ms":1100,"seed":)" + seed + "}");
    EXPECT_NE(cv.find(R"("ok":true)"), std::string::npos) << cv;
  };
  convolve("1");
  const std::uint64_t convolve_filled = convolve_baselines_computed();
  EXPECT_GE(convolve_filled, 1u);
  convolve("2");
  EXPECT_EQ(convolve_baselines_computed(), convolve_filled);
  EXPECT_EQ(service.stats().convolve_baselines,
            static_cast<std::int64_t>(convolve_filled));

  const std::string line = service.serve_line(R"({"op":"stats"})");
  // NAS knobs are a pinned table, not a memo: nothing to count.
  EXPECT_EQ(line.find("nas_calibrations"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("unixbench_baselines":)" +
                      std::to_string(before + 1) + ","),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(R"("convolve_baselines":)" +
                      std::to_string(convolve_filled) + ","),
            std::string::npos)
      << line;
}

TEST(ServeService, StatsReportPeakRss) {
  ServiceConfig cfg;
  cfg.workers = 1;
  SweepService service{cfg};
  const std::int64_t before = service.stats().peak_rss_kb;
  EXPECT_GT(before, 0);
  std::string error;
  const auto doc = parse_json(service.serve_line(R"({"op":"stats"})"), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* peak = doc->find("peak_rss_kb");
  ASSERT_NE(peak, nullptr);
  // A high-water mark: never below what stats() read earlier.
  EXPECT_TRUE(peak->as_int(before, INT64_MAX).has_value()) << peak->number;
}

// --- A miss fans out over the pool's idle workers ----------------------------

// A miss sweeps its independent simulations over the service's workers
// (run_experiment_payload(request, workers)); every cell is a pure function
// of its index and lands at that index, so no worker count moves a byte.
TEST(ServeFanOut, PayloadsIdenticalAtAnyWorkerCount) {
  std::vector<ExperimentRequest> requests;
  for (const int cpus : {5, 6, 7, 8}) {
    for (const char* smi : {"long", "short"}) {
      requests.push_back(parse_ok(
          R"({"experiment":"unixbench","cpus":)" + std::to_string(cpus) +
          R"(,"smi":")" + smi + R"(","gap_ms":600,"seed":31})"));
    }
  }
  requests.push_back(parse_ok(
      R"({"experiment":"nas","workload":"ft","class":"A","nodes":2,)"
      R"("trials":3,"smi":"long","seed":7})"));
  std::vector<std::string> serial;
  for (const ExperimentRequest& req : requests) {
    serial.push_back(run_experiment_payload(req));
  }

  for (const int workers : {1, 2, 4}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    SweepService service{cfg};
    // Two clients, so misses fan out both over idle workers and behind
    // another client's miss.
    std::vector<std::string> served(requests.size());
    std::vector<std::string> errors(requests.size());
    std::vector<std::thread> clients;
    for (std::size_t first = 0; first < 2; ++first) {
      clients.emplace_back([&, first] {
        for (std::size_t i = first; i < requests.size(); i += 2) {
          const auto out = service.serve(requests[i]);
          if (out.ok) served[i] = *out.payload;
          errors[i] = out.error;
        }
      });
    }
    for (auto& client : clients) client.join();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(served[i], serial[i])
          << workers << " workers, " << requests[i].canonical_json() << " "
          << errors[i];
    }
  }
}

TEST(ServeFanOut, UnixbenchIdenticalAtAnyJobCount) {
  UnixBenchOptions options;
  options.online_cpus = 6;
  options.smi = SmiConfig::long_every_second();
  options.seed = 17;
  const UnixBenchResult serial = run_unixbench(options);
  for (const int jobs : {2, 5}) {
    options.jobs = jobs;
    const UnixBenchResult swept = run_unixbench(options);
    EXPECT_EQ(swept.ops_per_s, serial.ops_per_s) << jobs << " jobs";
    EXPECT_EQ(swept.score, serial.score) << jobs << " jobs";
    EXPECT_EQ(swept.index, serial.index) << jobs << " jobs";
  }
}

// --- Persistent workers ----------------------------------------------------

TEST(ServeWarm, RepeatedServesOnWarmWorkersStayDeterministic) {
  // One worker => every simulation runs on the same pool thread; distinct
  // seeds force re-simulation each time. Results must match a fresh
  // single-shot service (no state leakage between requests).
  ServiceConfig warm_cfg;
  warm_cfg.workers = 1;
  SweepService warm{warm_cfg};
  for (const std::uint64_t seed : {21u, 22u, 23u, 21u}) {
    const auto served = warm.serve(small_ring(seed));
    ASSERT_TRUE(served.ok) << served.error;
    SweepService fresh{warm_cfg};
    const auto expect = fresh.serve(small_ring(seed));
    ASSERT_TRUE(expect.ok);
    EXPECT_EQ(*served.payload, *expect.payload) << seed;
  }
}

// --- Front ends -------------------------------------------------------------

TEST(ServeStream, PumpsLinesAndSkipsBlanks) {
  ServiceConfig cfg;
  cfg.workers = 1;
  SweepService service{cfg};
  std::istringstream in{
      "{\"op\":\"ping\"}\n"
      "\n"
      "{\"experiment\":\"ring\",\"nodes\":3,\"iters\":5,\"bytes\":256}\r\n"
      "not json\n"};
  std::ostringstream out;
  EXPECT_EQ(serve_stream(service, in, out), 3);
  std::istringstream lines{out.str()};
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, R"({"ok":true,"op":"ping"})");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find(R"("ok":true)"), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find(R"("ok":false)"), std::string::npos);
  EXPECT_FALSE(std::getline(lines, line));  // exactly 3 responses
}

/// Connect a blocking client to an abstract-namespace socket.
int connect_abstract(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path + 1, path.data() + 1, path.size() - 1);
  const auto len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                          path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string recv_line(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') break;
    line.push_back(c);
  }
  return line;
}

TEST(ServeSocket, RoundTripsOverAbstractUnixSocket) {
  ServiceConfig cfg;
  cfg.workers = 2;
  SweepService service{cfg};
  const std::string path =
      "@smilab-serve-test-" + std::to_string(::getpid());
  std::unique_ptr<SocketServer> server;
  try {
    server = std::make_unique<SocketServer>(service, path);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind abstract unix socket: " << e.what();
  }
  server->start();

  const int a = connect_abstract(path);
  const int b = connect_abstract(path);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  const std::string request =
      R"({"experiment":"ring","nodes":3,"iters":5,"bytes":256,"seed":9})"
      "\n";
  ASSERT_EQ(::send(a, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string first = recv_line(a);
  EXPECT_NE(first.find(R"("cached":false)"), std::string::npos) << first;
  ASSERT_EQ(::send(b, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string second = recv_line(b);
  EXPECT_NE(second.find(R"("cached":true)"), std::string::npos) << second;
  // Identical result bytes through both connections.
  const auto payload_of = [](const std::string& line) {
    return line.substr(line.find(R"("result":)"));
  };
  EXPECT_EQ(payload_of(first), payload_of(second));

  // Two requests in one write drain as two ordered responses.
  const std::string two = R"({"op":"ping"})" "\n" R"({"op":"ping"})" "\n";
  ASSERT_EQ(::send(a, two.data(), two.size(), 0),
            static_cast<ssize_t>(two.size()));
  EXPECT_EQ(recv_line(a), R"({"ok":true,"op":"ping"})");
  EXPECT_EQ(recv_line(a), R"({"ok":true,"op":"ping"})");

  ::close(a);
  ::close(b);
  server->stop();
  EXPECT_EQ(server->connections_accepted(), 2);
  server->stop();  // idempotent
}

/// A started server on a fresh abstract socket, or null if the sandbox
/// cannot bind one.
std::unique_ptr<SocketServer> start_server(SweepService& service,
                                           const std::string& name) {
  const std::string path =
      "@smilab-serve-" + name + "-" + std::to_string(::getpid());
  std::unique_ptr<SocketServer> server;
  try {
    server = std::make_unique<SocketServer>(service, path);
  } catch (const std::runtime_error&) {
    return nullptr;
  }
  server->start();
  return server;
}

/// Bound every blocking call on `fd`, so a server that never answers
/// fails the test instead of hanging it.
void set_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

TEST(ServeSocket, OverlongLineGetsOneErrorAndClose) {
  ServiceConfig cfg;
  cfg.workers = 1;
  SweepService service{cfg};
  const auto server = start_server(service, "overlong");
  if (!server) GTEST_SKIP() << "cannot bind abstract unix socket";
  const int fd = connect_abstract(server->path());
  ASSERT_GE(fd, 0);
  set_timeouts(fd);

  // More than the cap, never a newline. Past the cap the server stops
  // reading and closes, which ends the send loop early.
  const std::string chunk(64 * 1024, 'x');
  std::size_t sent = 0;
  while (sent <= kMaxRequestLine + chunk.size()) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_GT(sent, kMaxRequestLine);

  const std::string line = recv_line(fd);
  EXPECT_NE(line.find(R"("ok":false)"), std::string::npos) << line;
  EXPECT_NE(line.find("request line longer than"), std::string::npos) << line;
  // Then the connection is closed: EOF (or a reset, since the server left
  // bytes unread), not a receive timeout.
  char c = 0;
  const ssize_t n = ::recv(fd, &c, 1, 0);
  const int why = errno;
  EXPECT_TRUE(n == 0 || (n < 0 && why == ECONNRESET))
      << "recv returned " << n << " errno " << why;
  ::close(fd);
  server->stop();
  EXPECT_EQ(service.stats().errors, 1);
}

/// Virtual size of this process in kB, or -1 without /proc.
long long vm_size_kb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return -1;
}

TEST(ServeSocket, SequentialConnectionsDoNotAccumulateHandlers) {
  ServiceConfig cfg;
  cfg.workers = 1;
  SweepService service{cfg};
  const auto server = start_server(service, "reap");
  if (!server) GTEST_SKIP() << "cannot bind abstract unix socket";
  const std::string ping = R"({"op":"ping"})" "\n";
  auto cycle = [&] {
    const int fd = connect_abstract(server->path());
    ASSERT_GE(fd, 0);
    set_timeouts(fd);
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), 0),
              static_cast<ssize_t>(ping.size()));
    EXPECT_EQ(recv_line(fd), R"({"ok":true,"op":"ping"})");
    ::close(fd);
  };
  for (int i = 0; i < 5; ++i) cycle();
  const long long before = vm_size_kb();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  for (int i = 0; i < 200; ++i) cycle();
  const long long grown_kb = vm_size_kb() - before;
  // An unjoined handler keeps its whole stack mapped (8 MB by default), so
  // 200 of them would add ~1.6 GB. Joined handlers leave only what a few
  // concurrent ones map: their stacks and a 64 MB malloc arena each.
  EXPECT_LT(grown_kb, 512 * 1024) << "VmSize grew " << grown_kb << " kB";
  server->stop();
  EXPECT_EQ(server->connections_accepted(), 205);
}

}  // namespace
}  // namespace smilab::serve
