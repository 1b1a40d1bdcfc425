#include "mcs/core/partition.hpp"

#include <gtest/gtest.h>

#include "mcs/gen/rng.hpp"

namespace mcs {
namespace {

TaskSet make_set() {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{2.0}, 10.0);
  tasks.emplace_back(1, std::vector<double>{1.0, 4.0}, 10.0);
  tasks.emplace_back(2, std::vector<double>{2.0, 5.0}, 20.0);
  return TaskSet(std::move(tasks), 2);
}

TEST(PartitionTest, StartsEmpty) {
  const TaskSet ts = make_set();
  const Partition p(ts, 2);
  EXPECT_EQ(p.num_cores(), 2u);
  EXPECT_EQ(p.assigned_count(), 0u);
  EXPECT_FALSE(p.complete());
  EXPECT_EQ(p.core_of(0), kUnassigned);
  EXPECT_TRUE(p.utils_on(0).empty());
}

TEST(PartitionTest, AssignUpdatesMembershipAndUtils) {
  const TaskSet ts = make_set();
  Partition p(ts, 2);
  p.assign(1, 0);
  p.assign(2, 0);
  p.assign(0, 1);
  EXPECT_TRUE(p.complete());
  EXPECT_EQ(p.core_of(1), 0u);
  EXPECT_EQ(p.tasks_on(0), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(p.tasks_on(1), (std::vector<std::size_t>{0}));
  // Core 0: U_2(1) = 0.1 + 0.1 = 0.2; U_2(2) = 0.4 + 0.25 = 0.65.
  EXPECT_NEAR(p.utils_on(0).level_util(2, 1), 0.2, 1e-12);
  EXPECT_NEAR(p.utils_on(0).level_util(2, 2), 0.65, 1e-12);
  EXPECT_NEAR(p.utils_on(1).level_util(1, 1), 0.2, 1e-12);
}

TEST(PartitionTest, UnassignRestoresState) {
  const TaskSet ts = make_set();
  Partition p(ts, 2);
  p.assign(1, 0);
  p.assign(2, 0);
  p.unassign(1);
  EXPECT_EQ(p.core_of(1), kUnassigned);
  EXPECT_EQ(p.tasks_on(0), (std::vector<std::size_t>{2}));
  EXPECT_NEAR(p.utils_on(0).level_util(2, 2), 0.25, 1e-12);
  EXPECT_EQ(p.assigned_count(), 1u);
}

TEST(PartitionTest, DoubleAssignThrows) {
  const TaskSet ts = make_set();
  Partition p(ts, 2);
  p.assign(0, 0);
  EXPECT_THROW(p.assign(0, 1), std::logic_error);
}

TEST(PartitionTest, UnassignUnassignedThrows) {
  const TaskSet ts = make_set();
  Partition p(ts, 2);
  EXPECT_THROW(p.unassign(0), std::logic_error);
}

TEST(PartitionTest, OutOfRangeIndicesThrow) {
  const TaskSet ts = make_set();
  Partition p(ts, 2);
  EXPECT_THROW(p.assign(3, 0), std::out_of_range);
  EXPECT_THROW(p.assign(0, 2), std::out_of_range);
  EXPECT_THROW(p.unassign(3), std::out_of_range);
}

TEST(PartitionTest, NeedsAtLeastOneCore) {
  const TaskSet ts = make_set();
  EXPECT_THROW(Partition(ts, 0), std::invalid_argument);
}

// Over random assign/unassign histories, every core's derived matrix must
// be the one that replaying the core's history through UtilMatrix::add /
// remove builds: operator== compares every entry bit for bit (a residue
// the -1e-12 clamp zeroed included) and the task count.
TEST(PartitionTest, DerivedMatricesMatchReplayedHistories) {
  std::size_t clamped = 0;  // removals whose residue the clamp zeroed
  for (const Level K : {1u, 2u, 4u}) {
    for (const std::size_t M : {1u, 3u, 8u}) {
      gen::Rng rng(gen::derive_seed(19, K * 16 + M));
      std::vector<McTask> tasks;
      for (std::size_t i = 0; i < 24; ++i) {
        const auto level = static_cast<Level>(rng.uniform_int(1, K));
        std::vector<double> wcets;
        double c = 0.0;
        for (Level k = 1; k <= level; ++k) {
          c += rng.uniform(0.01, 0.2);
          wcets.push_back(c);
        }
        tasks.emplace_back(i, std::move(wcets), 1.0);  // u_i(k) == c_i(k)
      }
      const TaskSet ts(std::move(tasks), K);
      Partition p(ts, M);
      std::vector<UtilMatrix> replay(M, UtilMatrix(K));
      UtilMatrix derived(1);  // reused: the allocation-free overload
      for (std::size_t step = 0; step < 400; ++step) {
        const std::size_t t = rng.uniform_int(0, ts.size() - 1);
        if (p.core_of(t) == kUnassigned) {
          const std::size_t m = rng.uniform_int(0, M - 1);
          p.assign(t, m);
          replay[m].add(ts[t]);
        } else {
          const std::size_t m = p.core_of(t);
          const Level j = ts[t].level();
          for (Level k = 1; k <= j; ++k) {
            const double residue =
                replay[m].level_util(j, k) - ts[t].utilization(k);
            if (residue < 0.0 && residue > -1e-12) ++clamped;
          }
          p.unassign(t);
          replay[m].remove(ts[t]);
        }
        for (std::size_t m = 0; m < M; ++m) {
          ASSERT_EQ(p.utils_on(m), replay[m])
              << "K=" << K << " M=" << M << " step " << step << " core " << m;
          p.utils_on(m, derived);
          ASSERT_EQ(derived, replay[m])
              << "K=" << K << " M=" << M << " step " << step << " core " << m;
        }
      }
    }
  }
  EXPECT_GT(clamped, 0u);
}

}  // namespace
}  // namespace mcs
