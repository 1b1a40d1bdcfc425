// AnalysisCache semantics: LRU eviction order, key-collision detection,
// what an entry carries, stats accounting — plus the fingerprint/canonical-
// text properties of svc::analysis the cache keys on, and the differential
// "cached result == cold probe" guarantee.
#include "mcs/svc/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string_view>

#include "mcs/analysis/placement.hpp"
#include "mcs/exp/paper_params.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/svc/protocol.hpp"

namespace mcs::svc {
namespace {

std::shared_ptr<const AnalysisResult> dummy_result(std::size_t probes) {
  auto result = std::make_shared<AnalysisResult>();
  result->success = true;
  result->probes = probes;
  return result;
}

TaskSet small_taskset(std::uint64_t trial) {
  gen::GenParams params = exp::default_gen_params();
  params.num_tasks = 24;
  return gen::generate_trial(params, 11, trial);
}

TEST(AnalysisCacheTest, HitRequiresMatchingCanonicalText) {
  AnalysisCache cache(4);
  cache.insert(42, "request A", dummy_result(1));

  EXPECT_NE(cache.lookup(42, "request A"), nullptr);
  // Same fingerprint, different canonical text: a detected collision is a
  // miss, never the wrong entry.
  EXPECT_EQ(cache.lookup(42, "request B"), nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.collisions, 1u);
}

TEST(AnalysisCacheTest, LruEvictionEvictsLeastRecentlyUsed) {
  AnalysisCache cache(2);
  cache.insert(1, "a", dummy_result(1));
  cache.insert(2, "b", dummy_result(2));
  // Touch 1: now 2 is least recently used.
  EXPECT_NE(cache.lookup(1, "a"), nullptr);
  cache.insert(3, "c", dummy_result(3));

  EXPECT_EQ(cache.lookup(2, "b"), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(cache.lookup(1, "a"), nullptr);
  EXPECT_NE(cache.lookup(3, "c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(AnalysisCacheTest, InsertRefreshesExistingFingerprint) {
  AnalysisCache cache(2);
  cache.insert(1, "a", dummy_result(1));
  cache.insert(1, "a2", dummy_result(99));
  EXPECT_EQ(cache.stats().size, 1u);
  const auto hit = cache.lookup(1, "a2");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->fields, result_fields(*dummy_result(99)));
}

// The entry a miss fills carries the response's fingerprint (FNV-1a of the
// canonical text, whatever the key) and its rendered result fields, and a
// hit returns that same entry.
TEST(AnalysisCacheTest, EntryCarriesFingerprintAndRenderedFields) {
  AnalysisCache cache(4);
  const auto filled = cache.insert(7, "request A", dummy_result(3));
  ASSERT_NE(filled, nullptr);
  EXPECT_EQ(filled->fingerprint, canonical_fingerprint("request A"));
  EXPECT_EQ(filled->fields, result_fields(*dummy_result(3)));
  EXPECT_EQ(cache.lookup(7, "request A"), filled);
}

TEST(AnalysisCacheTest, CapacityFloorsAtOne) {
  AnalysisCache cache(0);
  EXPECT_EQ(cache.stats().capacity, 1u);
  cache.insert(1, "a", dummy_result(1));
  cache.insert(2, "b", dummy_result(2));
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(AnalysisCacheTest, ClearKeepsLifetimeTotals) {
  AnalysisCache cache(4);
  cache.insert(1, "a", dummy_result(1));
  EXPECT_NE(cache.lookup(1, "a"), nullptr);
  cache.clear();
  EXPECT_EQ(cache.lookup(1, "a"), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(AnalysisFingerprintTest, WireCanonicalMatchesInProcessCanonical) {
  const AnalysisRequest request{"CA-TPA", 8, 0.7, small_taskset(0)};
  std::ostringstream wire_text;
  write_analyze_request(wire_text, 5, request);
  std::string_view rest = wire_text.view();
  RequestFramer framer;
  const std::optional<Request> wire =
      framer.next([&rest](std::span<char> space) {
        const std::size_t n = std::min(space.size(), rest.size());
        std::memcpy(space.data(), rest.data(), n);
        rest.remove_prefix(n);
        return static_cast<std::ptrdiff_t>(n);
      });
  ASSERT_TRUE(wire.has_value());
  ASSERT_TRUE(wire->analyze.has_value());
  // The daemon's zero-copy canonical (assembled from received tokens) is
  // byte-identical to the from-scratch serialization, so in-process and
  // over-the-wire fingerprints agree.
  EXPECT_EQ(wire->analyze->canonical, canonical_request_text(request));
  EXPECT_EQ(canonical_fingerprint(wire->analyze->canonical),
            request_fingerprint(request));
}

TEST(AnalysisFingerprintTest, FingerprintSeparatesRequests) {
  const AnalysisRequest base{"CA-TPA", 8, 0.7, small_taskset(0)};
  const AnalysisRequest other_scheme{"FFD", 8, 0.7, small_taskset(0)};
  const AnalysisRequest other_cores{"CA-TPA", 4, 0.7, small_taskset(0)};
  const AnalysisRequest other_alpha{"CA-TPA", 8, 0.5, small_taskset(0)};
  const AnalysisRequest other_tasks{"CA-TPA", 8, 0.7, small_taskset(1)};
  EXPECT_EQ(request_fingerprint(base), request_fingerprint(base));
  EXPECT_NE(request_fingerprint(base), request_fingerprint(other_scheme));
  EXPECT_NE(request_fingerprint(base), request_fingerprint(other_cores));
  EXPECT_NE(request_fingerprint(base), request_fingerprint(other_alpha));
  EXPECT_NE(request_fingerprint(base), request_fingerprint(other_tasks));
}

TEST(AnalysisFingerprintTest, TasksetFingerprintIsStructural) {
  const TaskSet a = small_taskset(3);
  const TaskSet b = small_taskset(3);
  const TaskSet c = small_taskset(4);
  EXPECT_EQ(taskset_fingerprint(a), taskset_fingerprint(b));
  EXPECT_NE(taskset_fingerprint(a), taskset_fingerprint(c));
}

TEST(AnalysisDifferentialTest, CachedResultEqualsColdProbe) {
  // The property the daemon's cache depends on: analyze() is a pure
  // function of the request, so serving a stored result is
  // indistinguishable from re-running the analysis.
  const AnalysisRequest request{"CA-TPA", 8, 0.7, small_taskset(5)};
  analysis::PlacementEngine engine_a, engine_b;
  const AnalysisResult cold = analyze(request, engine_a);
  // Reuse engine_a for an unrelated request in between: leased engines are
  // reset per request, so history must not leak.
  const AnalysisRequest other{"WFD", 4, 0.7, small_taskset(6)};
  (void)analyze(other, engine_a);
  const AnalysisResult again = analyze(request, engine_a);
  const AnalysisResult fresh = analyze(request, engine_b);

  for (const AnalysisResult* r : {&again, &fresh}) {
    EXPECT_EQ(cold.success, r->success);
    EXPECT_EQ(cold.failed_task, r->failed_task);
    EXPECT_EQ(cold.probes, r->probes);
    EXPECT_EQ(cold.u_sys, r->u_sys);
    EXPECT_EQ(cold.u_avg, r->u_avg);
    EXPECT_EQ(cold.imbalance, r->imbalance);
    EXPECT_EQ(cold.partition_text, r->partition_text);
  }
}

}  // namespace
}  // namespace mcs::svc
