#include "mcs/util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace mcs::util {
namespace {

TEST(WelfordTest, EmptyAccumulator) {
  const Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_TRUE(std::isnan(w.min()));
  EXPECT_TRUE(std::isnan(w.max()));
}

TEST(WelfordTest, SingleValue) {
  Welford w;
  w.add(3.5);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_DOUBLE_EQ(w.mean(), 3.5);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 3.5);
  EXPECT_DOUBLE_EQ(w.max(), 3.5);
}

TEST(WelfordTest, KnownMeanAndVariance) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  // Sample variance of this classic data set: 32 / 7.
  EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(WelfordTest, MergeEqualsSequential) {
  Welford all;
  Welford a;
  Welford b;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.1 * i * i - 3.0 * i;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(WelfordTest, MergeWithEmptyIsNoop) {
  Welford a;
  a.add(1.0);
  a.add(2.0);
  const Welford before = a;
  a.merge(Welford{});
  EXPECT_EQ(a.count(), before.count());
  EXPECT_DOUBLE_EQ(a.mean(), before.mean());
  Welford empty;
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

void fill_cyclic(Welford& w, int n) {
  for (int i = 0; i < n; ++i) w.add((i % 7) * 1.0);
}

TEST(WelfordTest, Ci95ShrinksWithSamples) {
  Welford small;
  Welford large;
  fill_cyclic(small, 10);
  fill_cyclic(large, 1000);
  EXPECT_GT(small.ci95(), large.ci95());
}

TEST(WelfordTest, RestoreRoundTripsStateExactly) {
  Welford w;
  fill_cyclic(w, 53);
  const Welford back =
      Welford::restore(w.count(), w.mean(), w.m2(), w.raw_min(), w.raw_max());
  EXPECT_EQ(back.count(), w.count());
  EXPECT_EQ(back.mean(), w.mean());
  EXPECT_EQ(back.m2(), w.m2());
  EXPECT_EQ(back.raw_min(), w.raw_min());
  EXPECT_EQ(back.raw_max(), w.raw_max());
  // The restored accumulator keeps accumulating identically.
  Welford original = w;
  Welford restored = back;
  original.add(3.25);
  restored.add(3.25);
  EXPECT_EQ(restored.mean(), original.mean());
  EXPECT_EQ(restored.m2(), original.m2());
}

// -- merge exactness properties the sweep scheduler builds on --------------
//
// The chunk-order merge in exp::run_points (and therefore the --threads N
// artifact byte-identity) requires exactly two things of Welford::merge:
// it is a pure deterministic function of its operands, and merging with an
// empty accumulator is a bitwise identity.  Floating-point merge is NOT
// exactly associative — the tests below pin the properties that do hold
// bit-exactly and bound the one that holds only approximately.

namespace {

/// Deterministic, awkwardly-spaced sample values (no RNG needed).
double sample_value(std::size_t i) {
  const auto x = static_cast<double>(i);
  return (x * 0.37 - 5.0) * (i % 7 == 0 ? 1e6 : 1e-3) + 1.0 / (x + 1.0);
}

Welford chunk_of(std::size_t begin, std::size_t end) {
  Welford w;
  for (std::size_t i = begin; i < end; ++i) w.add(sample_value(i));
  return w;
}

void expect_bitwise_equal(const Welford& a, const Welford& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.m2(), b.m2());
  EXPECT_EQ(a.raw_min(), b.raw_min());
  EXPECT_EQ(a.raw_max(), b.raw_max());
}

}  // namespace

TEST(WelfordMergeTest, MergeIsDeterministic) {
  // Same operands, any number of repetitions: bit-identical outcome.
  for (int rep = 0; rep < 3; ++rep) {
    Welford a = chunk_of(0, 64);
    const Welford b = chunk_of(64, 192);
    a.merge(b);
    Welford a2 = chunk_of(0, 64);
    a2.merge(chunk_of(64, 192));
    expect_bitwise_equal(a, a2);
  }
}

TEST(WelfordMergeTest, MergeWithEmptyIsBitwiseIdentity) {
  Welford a = chunk_of(0, 100);
  const Welford before = a;
  a.merge(Welford{});
  expect_bitwise_equal(a, before);

  Welford empty;
  empty.merge(before);
  expect_bitwise_equal(empty, before);
}

TEST(WelfordMergeTest, ChunkOrderFoldIsReproducibleAnySchedule) {
  // The scheduler's exact scenario: chunks are computed by different
  // threads in arbitrary completion order, but folded in chunk-index
  // order.  Whatever order the chunks were *computed* in, the fold result
  // is bit-identical — the fold is a pure function of the ordered chunk
  // list.
  constexpr std::size_t kChunks = 8;
  constexpr std::size_t kPerChunk = 37;
  std::vector<Welford> forward(kChunks), scrambled(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    forward[c] = chunk_of(c * kPerChunk, (c + 1) * kPerChunk);
  }
  // "Compute" them again in a different order (reverse), storing per-index.
  for (std::size_t r = kChunks; r-- > 0;) {
    scrambled[r] = chunk_of(r * kPerChunk, (r + 1) * kPerChunk);
  }
  Welford fold_a, fold_b;
  for (std::size_t c = 0; c < kChunks; ++c) fold_a.merge(forward[c]);
  for (std::size_t c = 0; c < kChunks; ++c) fold_b.merge(scrambled[c]);
  expect_bitwise_equal(fold_a, fold_b);
}

TEST(WelfordMergeTest, MergeOrderChangesBitsButNotStatistics) {
  // The reason the fold order is pinned at all: merge is only
  // approximately associative/commutative.  Different orders agree to
  // ~1e-12 relative but need not agree bitwise, so a completion-order
  // merge would make artifacts depend on thread scheduling.
  Welford ab = chunk_of(0, 50);
  ab.merge(chunk_of(50, 150));
  Welford ba = chunk_of(50, 150);
  ba.merge(chunk_of(0, 50));
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_NEAR(ab.mean(), ba.mean(),
              1e-12 * std::max(1.0, std::fabs(ab.mean())));
  EXPECT_NEAR(ab.m2(), ba.m2(), 1e-9 * std::max(1.0, std::fabs(ab.m2())));
  EXPECT_EQ(ab.raw_min(), ba.raw_min());
  EXPECT_EQ(ab.raw_max(), ba.raw_max());
}

TEST(WelfordMergeTest, MergeMatchesSequentialToFloatingTolerance) {
  // Value-level sanity (exactness is deliberately NOT claimed here):
  // chunked merge and one sequential pass agree to tight tolerance on a
  // wide-dynamic-range sample.
  constexpr std::size_t kTotal = 333;
  Welford sequential = chunk_of(0, kTotal);
  Welford merged;
  for (std::size_t begin = 0; begin < kTotal; begin += 64) {
    merged.merge(chunk_of(begin, std::min(kTotal, begin + 64)));
  }
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_NEAR(merged.mean(), sequential.mean(),
              1e-9 * std::max(1.0, std::fabs(sequential.mean())));
  EXPECT_NEAR(merged.variance(), sequential.variance(),
              1e-6 * std::max(1.0, sequential.variance()));
  EXPECT_EQ(merged.raw_min(), sequential.raw_min());
  EXPECT_EQ(merged.raw_max(), sequential.raw_max());
}

TEST(WelfordTest, RawExtremaOfEmptyAreInfinities) {
  const Welford w;
  EXPECT_TRUE(std::isinf(w.raw_min()));
  EXPECT_GT(w.raw_min(), 0.0);
  EXPECT_TRUE(std::isinf(w.raw_max()));
  EXPECT_LT(w.raw_max(), 0.0);
  EXPECT_TRUE(std::isnan(w.min()));
  EXPECT_TRUE(std::isnan(w.max()));
}

}  // namespace
}  // namespace mcs::util
