// Struct-of-arrays level-utilization planes: a Partition's per-core state.
//
// Every core's level utilizations U_j(k) (Eqs. 1-2) are stored transposed,
// as K x K planes of M contiguous doubles each:
//
//   plane(j, k)[m] == U_j(k) of core m's subset Psi_m
//
// so one pass of the batched Theorem-1 kernel (analysis/batch_probe.hpp)
// streams each plane once and its inner loop over cores auto-vectorizes.
// add()/remove() perform exactly the arithmetic of UtilMatrix::add/remove
// on one lane (the same += / -=, including the tiny-negative clamp on
// remove), so copy_lane() hands scalar code the very matrix that replaying
// the core's add/remove history through a UtilMatrix would build, bit for
// bit.
#pragma once

#include <cstddef>
#include <vector>

#include "mcs/core/taskset.hpp"

namespace mcs {

/// K x K lower-triangular grid of per-core utilization planes; entry
/// (j, k, m), k <= j, stores U_j(k) of core m's subset.
class LevelUtilPlanes {
 public:
  LevelUtilPlanes() = default;

  /// Re-initializes to all-zero planes for `num_levels` levels and
  /// `num_cores` cores, reusing storage when possible (the no-allocation
  /// path of Partition::reset on the Monte-Carlo steady state).
  void reset(Level num_levels, std::size_t num_cores);

  [[nodiscard]] Level num_levels() const noexcept { return levels_; }
  [[nodiscard]] std::size_t num_cores() const noexcept { return cores_; }

  /// UtilMatrix::add/remove on core `core`'s lane of rows (j, 1..j).  The
  /// task's level must not exceed num_levels().
  void add(const McTask& task, std::size_t core);
  void remove(const McTask& task, std::size_t core);

  /// The M-wide plane of U_j(k) values, one lane per core.
  /// Requires 1 <= k <= j <= num_levels().
  [[nodiscard]] const double* plane(Level j, Level k) const noexcept {
    return u_.data() + index(j, k);
  }

  /// sum_{k=1..K} U_k(k) of one core (the Eq. (4) left-hand side), summed
  /// in ascending k like UtilMatrix::own_level_sum.
  [[nodiscard]] double own_level_sum(std::size_t core) const noexcept {
    double total = 0.0;
    for (Level k = 1; k <= levels_; ++k) total += u_[index(k, k) + core];
    return total;
  }

  /// Writes core `core`'s lane into `out` as the matrix of a `count`-task
  /// subset, reusing out's storage.
  void copy_lane(std::size_t core, std::size_t count, UtilMatrix& out) const;

 private:
  [[nodiscard]] std::size_t index(Level j, Level k) const noexcept {
    return (static_cast<std::size_t>(j - 1) * levels_ +
            static_cast<std::size_t>(k - 1)) *
           cores_;
  }

  Level levels_ = 0;
  std::size_t cores_ = 0;
  std::vector<double> u_;  // (K*K) planes of M doubles, zero above diagonal
};

}  // namespace mcs
