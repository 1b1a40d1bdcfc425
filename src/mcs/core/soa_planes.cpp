#include "mcs/core/soa_planes.hpp"

#include <stdexcept>

namespace mcs {

void LevelUtilPlanes::reset(Level num_levels, std::size_t num_cores) {
  if (num_levels < 1) {
    throw std::invalid_argument("LevelUtilPlanes::reset: need at least one level");
  }
  levels_ = num_levels;
  cores_ = num_cores;
  u_.assign(static_cast<std::size_t>(levels_) * levels_ * cores_, 0.0);
}

void LevelUtilPlanes::add(const McTask& task, std::size_t core) {
  const Level j = task.level();
  if (j > levels_) {
    throw std::invalid_argument(
        "LevelUtilPlanes::add: task level exceeds system K");
  }
  for (Level k = 1; k <= j; ++k) {
    u_[index(j, k) + core] += task.utilization(k);
  }
}

void LevelUtilPlanes::remove(const McTask& task, std::size_t core) {
  const Level j = task.level();
  if (j > levels_) {
    throw std::invalid_argument(
        "LevelUtilPlanes::remove: task level exceeds system K");
  }
  for (Level k = 1; k <= j; ++k) {
    double& u = u_[index(j, k) + core];
    u -= task.utilization(k);
    // Same tiny-negative clamp as UtilMatrix::remove, so a lane stays the
    // matrix its add/remove history would build.
    if (u < 0.0 && u > -1e-12) u = 0.0;
  }
}

void LevelUtilPlanes::copy_lane(std::size_t core, std::size_t count,
                                UtilMatrix& out) const {
  // Matrix entry i = (j-1)*K + (k-1) is plane entry i*M + core; the planes
  // hold zeros above the diagonal, as the matrix does.
  out.levels_ = levels_;
  out.count_ = count;
  out.u_.resize(static_cast<std::size_t>(levels_) * levels_);
  for (std::size_t i = 0; i < out.u_.size(); ++i) {
    out.u_[i] = u_[i * cores_ + core];
  }
}

}  // namespace mcs
