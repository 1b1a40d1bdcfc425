#include "mcs/core/taskset.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace mcs {
namespace {

// Three tasks over K = 3:
//   tau_0: L1, p=10, c=<2>           u(1)=0.2
//   tau_1: L2, p=10, c=<1, 4>        u(1)=0.1, u(2)=0.4
//   tau_2: L3, p=20, c=<2, 5, 10>    u(1)=0.1, u(2)=0.25, u(3)=0.5
TaskSet make_set() {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{2.0}, 10.0);
  tasks.emplace_back(1, std::vector<double>{1.0, 4.0}, 10.0);
  tasks.emplace_back(2, std::vector<double>{2.0, 5.0, 10.0}, 20.0);
  return TaskSet(std::move(tasks), 3);
}

TEST(UtilMatrixTest, LevelUtilsMatchHandComputation) {
  const TaskSet ts = make_set();
  const UtilMatrix& u = ts.utils();
  EXPECT_DOUBLE_EQ(u.level_util(1, 1), 0.2);
  EXPECT_DOUBLE_EQ(u.level_util(2, 1), 0.1);
  EXPECT_DOUBLE_EQ(u.level_util(2, 2), 0.4);
  EXPECT_DOUBLE_EQ(u.level_util(3, 1), 0.1);
  EXPECT_DOUBLE_EQ(u.level_util(3, 2), 0.25);
  EXPECT_DOUBLE_EQ(u.level_util(3, 3), 0.5);
}

TEST(UtilMatrixTest, TotalAtOrAboveFollowsEq2) {
  const TaskSet ts = make_set();
  // U(1) = 0.2 + 0.1 + 0.1, U(2) = 0.4 + 0.25, U(3) = 0.5.
  EXPECT_NEAR(ts.total_util(1), 0.4, 1e-12);
  EXPECT_NEAR(ts.total_util(2), 0.65, 1e-12);
  EXPECT_NEAR(ts.total_util(3), 0.5, 1e-12);
}

TEST(UtilMatrixTest, OwnLevelSumIsEq4Lhs) {
  const TaskSet ts = make_set();
  // U_1(1) + U_2(2) + U_3(3) = 0.2 + 0.4 + 0.5.
  EXPECT_NEAR(ts.utils().own_level_sum(), 1.1, 1e-12);
}

TEST(UtilMatrixTest, AddThenRemoveRestoresState) {
  UtilMatrix u(3);
  const McTask extra(9, {1.0, 2.0}, 4.0);
  const UtilMatrix before = u;
  u.add(extra);
  EXPECT_EQ(u.size(), 1u);
  EXPECT_DOUBLE_EQ(u.level_util(2, 2), 0.5);
  u.remove(extra);
  EXPECT_EQ(u, before);
  EXPECT_TRUE(u.empty());
}

TEST(UtilMatrixTest, RemoveFromEmptyThrows) {
  UtilMatrix u(2);
  const McTask t(0, {1.0}, 4.0);
  EXPECT_THROW(u.remove(t), std::logic_error);
}

TEST(UtilMatrixTest, AddTaskAboveSystemLevelThrows) {
  UtilMatrix u(2);
  const McTask t(0, {1.0, 2.0, 3.0}, 10.0);
  EXPECT_THROW(u.add(t), std::invalid_argument);
}

TEST(UtilMatrixTest, OutOfRangeQueriesThrow) {
  const UtilMatrix u(3);
  EXPECT_THROW((void)u.level_util(1, 2), std::out_of_range);  // k > j
  EXPECT_THROW((void)u.level_util(4, 1), std::out_of_range);  // j > K
  EXPECT_THROW((void)u.level_util(1, 0), std::out_of_range);  // k < 1
  EXPECT_THROW((void)u.total_at_or_above(0), std::out_of_range);
  EXPECT_THROW((void)u.total_at_or_above(4), std::out_of_range);
}

TEST(UtilMatrixTest, NeedsAtLeastOneLevel) {
  EXPECT_THROW(UtilMatrix(0), std::invalid_argument);
}

TEST(TaskSetTest, SizeAndIndexing) {
  const TaskSet ts = make_set();
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.num_levels(), 3u);
  EXPECT_EQ(ts[1].id(), 1u);
}

TEST(TaskSetTest, RawLevel1Utilization) {
  const TaskSet ts = make_set();
  EXPECT_NEAR(ts.raw_level1_util(), 0.4, 1e-12);
}

TEST(TaskSetTest, RejectsEmptySet) {
  EXPECT_THROW(TaskSet({}, 2), std::invalid_argument);
}

TEST(TaskSetTest, RejectsTaskAboveSystemLevels) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{1.0, 2.0, 3.0}, 10.0);
  EXPECT_THROW(TaskSet(std::move(tasks), 2), std::invalid_argument);
}

TEST(TaskSetTest, EachConstructionTakesANewSerial) {
  const TaskSet a = make_set();
  const TaskSet b = make_set();  // same tasks, still a new serial
  EXPECT_NE(a.serial(), b.serial());
}

TEST(TaskSetTest, AssignTakesANewSerial) {
  TaskSet ts = make_set();
  const std::uint64_t before = ts.serial();
  ts.assign(make_set().tasks(), 3);  // same tasks, still a new serial
  EXPECT_NE(ts.serial(), before);
}

TEST(TaskSetTest, CopiesKeepTheSerial) {
  const TaskSet original = make_set();
  const TaskSet copy(original);
  EXPECT_EQ(copy.serial(), original.serial());
  TaskSet assigned = make_set();
  assigned = original;
  EXPECT_EQ(assigned.serial(), original.serial());
}

TEST(TaskSetTest, IterationVisitsAllTasks) {
  const TaskSet ts = make_set();
  std::size_t n = 0;
  for (const McTask& t : ts) {
    EXPECT_EQ(t.id(), n);
    ++n;
  }
  EXPECT_EQ(n, 3u);
}

}  // namespace
}  // namespace mcs
