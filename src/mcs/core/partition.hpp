// Task-to-core partitions (Gamma = {Psi_1, ..., Psi_M}).
//
// A Partition tracks which core each task of a TaskSet is assigned to and
// incrementally maintains every core's level utilizations U_j(k) so that
// analysis probes are O(K^2) instead of O(|Psi_m| * K).  The utilizations
// live in one place: struct-of-arrays LevelUtilPlanes, which the batched
// probe kernels stream directly.  Scalar code gets a core's UtilMatrix
// derived from its lane (utils_on), bit-identical to the matrix its
// assign/unassign history would have built.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "mcs/core/soa_planes.hpp"
#include "mcs/core/taskset.hpp"

namespace mcs {

/// Sentinel for "task not assigned to any core".
inline constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();

class Partition {
 public:
  /// An empty partition of `ts` over `num_cores` cores.  The TaskSet must
  /// outlive the Partition (it is held by reference).
  Partition(const TaskSet& ts, std::size_t num_cores);

  /// Rebinds to a (possibly different) task set and core count and clears
  /// all assignments, reusing the per-core buffers — the no-allocation path
  /// for harnesses that partition many task sets in a row.
  void reset(const TaskSet& ts, std::size_t num_cores);

  [[nodiscard]] std::size_t num_cores() const noexcept {
    return members_.size();
  }
  [[nodiscard]] const TaskSet& taskset() const noexcept { return *ts_; }

  /// Assigns task `task_index` to core `core`; the task must be unassigned.
  void assign(std::size_t task_index, std::size_t core);

  /// Removes task `task_index` from its core.
  void unassign(std::size_t task_index);

  /// Core of a task, or kUnassigned.
  [[nodiscard]] std::size_t core_of(std::size_t task_index) const {
    return core_of_.at(task_index);
  }

  /// Indices of the tasks currently on core m (insertion order).
  [[nodiscard]] const std::vector<std::size_t>& tasks_on(std::size_t core) const {
    return members_.at(core);
  }

  /// The level-utilization matrix of core m's subset Psi_m.
  [[nodiscard]] UtilMatrix utils_on(std::size_t core) const;

  /// utils_on(core) written into `out`, reusing its storage.
  void utils_on(std::size_t core, UtilMatrix& out) const;

  /// Every core's level utilizations, one lane per core.
  [[nodiscard]] const LevelUtilPlanes& planes() const noexcept {
    return planes_;
  }

  /// Number of tasks assigned so far.
  [[nodiscard]] std::size_t assigned_count() const noexcept { return assigned_; }

  /// True when every task of the set has a core.
  [[nodiscard]] bool complete() const noexcept {
    return assigned_ == ts_->size();
  }

 private:
  const TaskSet* ts_;
  std::vector<std::vector<std::size_t>> members_;  ///< per core
  LevelUtilPlanes planes_;
  std::vector<std::size_t> core_of_;
  std::size_t assigned_ = 0;
};

}  // namespace mcs
