// Task sets and level-utilization bookkeeping.
//
// UtilMatrix maintains, for a (sub)set of MC tasks, the quantities the
// EDF-VD schedulability analysis is written in terms of:
//
//   U_j(k)  (Eq. 1): total level-k utilization of the tasks whose own
//                    criticality level is exactly j       (defined for k <= j)
//   U(k)    (Eq. 2): sum over j >= k of U_j(k) -- the level-k utilization of
//                    all tasks at criticality k or higher
//
// The matrix supports O(K) add/remove so that probe-based partitioners can
// evaluate "what if task tau_i joined core P_m" without rescanning the core's
// task list (K <= 6 in practice, so probes are effectively O(1)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mcs/core/task.hpp"

namespace mcs {

/// Lower-triangular K x K accumulator of level utilizations for a set of
/// tasks.  Entry (j, k), k <= j, stores U_j(k).
class UtilMatrix {
 public:
  /// An empty matrix for a system with `num_levels` criticality levels.
  explicit UtilMatrix(Level num_levels);

  /// Re-initializes to an empty matrix for `num_levels` levels, reusing the
  /// existing storage when possible (no allocation on the steady state of
  /// probe/trial loops).
  void reset(Level num_levels);

  [[nodiscard]] Level num_levels() const noexcept { return levels_; }

  /// Number of tasks currently accounted for.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Adds / removes one task's utilizations.  The task's level must not
  /// exceed num_levels().
  void add(const McTask& task);
  void remove(const McTask& task);

  /// U_j(k): level-k utilization of tasks at criticality level exactly j.
  /// Requires 1 <= k <= j <= num_levels().
  [[nodiscard]] double level_util(Level j, Level k) const;

  /// U(k) = sum_{j >= k} U_j(k): total level-k utilization of tasks with
  /// criticality level k or higher (Eq. 2).
  [[nodiscard]] double total_at_or_above(Level k) const;

  /// sum_{k=1..K} U_k(k): the left-hand side of the basic EDF-VD
  /// schedulability condition (Eq. 4).
  [[nodiscard]] double own_level_sum() const;

  [[nodiscard]] bool operator==(const UtilMatrix&) const = default;

 private:
  friend class LevelUtilPlanes;  // copy_lane writes a core's lane in place

  [[nodiscard]] std::size_t index(Level j, Level k) const noexcept {
    return static_cast<std::size_t>(j - 1) * levels_ +
           static_cast<std::size_t>(k - 1);
  }

  Level levels_;
  std::size_t count_ = 0;
  std::vector<double> u_;  // row-major K x K, zero above the diagonal
};

/// An immutable collection of MC tasks plus the number of criticality levels
/// K of the hosting system.  Tasks are indexed 0..size()-1 in insertion
/// order; McTask::id() is free-form and preserved for display.
class TaskSet {
 public:
  /// Builds a task set.  `num_levels` must be >= the highest task level.
  /// Throws std::invalid_argument if any task's level exceeds num_levels or
  /// if the set is empty.
  TaskSet(std::vector<McTask> tasks, Level num_levels);

  /// Rebuilds the set in place from a fresh task vector — same validation
  /// as the constructor, but the utilization matrix storage is recycled
  /// (UtilMatrix::reset), so the steady state of a trial loop allocates
  /// nothing beyond what `tasks` itself carries.  Takes a new serial().
  void assign(std::vector<McTask> tasks, Level num_levels);

  /// Moves the task vector out for shell recycling, leaving the set EMPTY —
  /// a state every other member (and the class invariant) forbids; the set
  /// must be re-assign()ed before any further use.  Hot-loop arena hook
  /// (gen::TrialArena), not a general API.
  [[nodiscard]] std::vector<McTask> release() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
  [[nodiscard]] Level num_levels() const noexcept { return levels_; }

  [[nodiscard]] const McTask& operator[](std::size_t i) const {
    return tasks_[i];
  }
  [[nodiscard]] const std::vector<McTask>& tasks() const noexcept {
    return tasks_;
  }
  [[nodiscard]] auto begin() const noexcept { return tasks_.begin(); }
  [[nodiscard]] auto end() const noexcept { return tasks_.end(); }

  /// Aggregate level utilizations of the whole set.
  [[nodiscard]] const UtilMatrix& utils() const noexcept { return utils_; }

  /// U(k) of the whole set (Eq. 2); shorthand for utils().total_at_or_above.
  [[nodiscard]] double total_util(Level k) const {
    return utils_.total_at_or_above(k);
  }

  /// Sum of u_i(1) over all tasks: the "raw" level-1 system utilization used
  /// by the workload generator's NSU normalization.
  [[nodiscard]] double raw_level1_util() const;

  /// A process-unique stamp of this set's contents: drawn from one counter
  /// at construction and at every assign(), kept by copies.  Two sets with
  /// the same serial hold the same tasks, whatever their addresses (a
  /// recycled trial shell keeps its address but not its serial), so
  /// per-set results such as the placement engine's task orders key on it.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }

 private:
  std::vector<McTask> tasks_;
  Level levels_;
  UtilMatrix utils_;
  std::uint64_t serial_;
};

}  // namespace mcs
