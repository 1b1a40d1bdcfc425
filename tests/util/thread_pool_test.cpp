#include "mcs/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace mcs::util {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<int> hits(kN, 0);
  parallel_for(kN, [&](std::size_t i) { hits[i] += 1; }, 4);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kN));
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelForTest, ZeroItemsIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 4);
}

TEST(ParallelForTest, SingleThreadRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, MoreThreadsThanItems) {
  std::atomic<int> count{0};
  parallel_for(3, [&](std::size_t) { count.fetch_add(1); }, 16);
  EXPECT_EQ(count.load(), 3);
}

TEST(ParallelForTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

// resolve_thread_count decides how many workers a sweep's jobs run on.  It
// only reads the hardware concurrency and starts no thread, so these run the
// same on any machine.
TEST(ResolveJobsTest, ZeroMeansHardwareConcurrency) {
  EXPECT_EQ(resolve_thread_count(0), default_thread_count());
}

TEST(ResolveJobsTest, PassesThroughSmallCounts) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(default_thread_count()),
            default_thread_count());
}

TEST(ResolveJobsTest, ClampsToHardwareConcurrency) {
  const std::size_t hardware = default_thread_count();
  EXPECT_EQ(resolve_thread_count(std::uint64_t{1} << 20), hardware);
  EXPECT_EQ(resolve_thread_count(hardware + 1), hardware);
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelForTest, ContinuesDrainingAfterException) {
  std::atomic<int> count{0};
  try {
    parallel_for(
        1000,
        [&](std::size_t i) {
          if (i == 0) throw std::runtime_error("early");
          count.fetch_add(1);
        },
        2);
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(count.load(), 999);
}

}  // namespace
}  // namespace mcs::util
