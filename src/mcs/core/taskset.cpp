#include "mcs/core/taskset.hpp"

#include <atomic>
#include <stdexcept>

namespace mcs {

namespace {
// Serials only need to be distinct, not ordered across threads, so a
// relaxed increment suffices for the sweep workers that share it.
std::atomic<std::uint64_t> g_next_serial{1};

std::uint64_t next_serial() noexcept {
  return g_next_serial.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

UtilMatrix::UtilMatrix(Level num_levels) : levels_(num_levels) {
  if (num_levels < 1) {
    throw std::invalid_argument("UtilMatrix: need at least one level");
  }
  u_.assign(static_cast<std::size_t>(levels_) * levels_, 0.0);
}

void UtilMatrix::reset(Level num_levels) {
  if (num_levels < 1) {
    throw std::invalid_argument("UtilMatrix::reset: need at least one level");
  }
  levels_ = num_levels;
  count_ = 0;
  u_.assign(static_cast<std::size_t>(levels_) * levels_, 0.0);
}

void UtilMatrix::add(const McTask& task) {
  const Level j = task.level();
  if (j > levels_) {
    throw std::invalid_argument("UtilMatrix::add: task level exceeds system K");
  }
  for (Level k = 1; k <= j; ++k) {
    u_[index(j, k)] += task.utilization(k);
  }
  ++count_;
}

void UtilMatrix::remove(const McTask& task) {
  const Level j = task.level();
  if (j > levels_) {
    throw std::invalid_argument(
        "UtilMatrix::remove: task level exceeds system K");
  }
  if (count_ == 0) {
    throw std::logic_error("UtilMatrix::remove: matrix is empty");
  }
  for (Level k = 1; k <= j; ++k) {
    u_[index(j, k)] -= task.utilization(k);
    // Clamp tiny negative residue from floating-point cancellation.
    if (u_[index(j, k)] < 0.0 && u_[index(j, k)] > -1e-12) {
      u_[index(j, k)] = 0.0;
    }
  }
  --count_;
}

double UtilMatrix::level_util(Level j, Level k) const {
  if (k < 1 || j < k || j > levels_) {
    throw std::out_of_range("UtilMatrix::level_util: (j, k) out of range");
  }
  return u_[index(j, k)];
}

double UtilMatrix::total_at_or_above(Level k) const {
  if (k < 1 || k > levels_) {
    throw std::out_of_range("UtilMatrix::total_at_or_above: k out of range");
  }
  double total = 0.0;
  for (Level j = k; j <= levels_; ++j) {
    total += u_[index(j, k)];
  }
  return total;
}

double UtilMatrix::own_level_sum() const {
  double total = 0.0;
  for (Level k = 1; k <= levels_; ++k) {
    total += u_[index(k, k)];
  }
  return total;
}

TaskSet::TaskSet(std::vector<McTask> tasks, Level num_levels)
    : tasks_(std::move(tasks)),
      levels_(num_levels),
      utils_(num_levels),
      serial_(next_serial()) {
  if (tasks_.empty()) {
    throw std::invalid_argument("TaskSet: must contain at least one task");
  }
  for (const McTask& t : tasks_) {
    utils_.add(t);  // throws if t.level() > num_levels
  }
}

void TaskSet::assign(std::vector<McTask> tasks, Level num_levels) {
  if (tasks.empty()) {
    throw std::invalid_argument("TaskSet: must contain at least one task");
  }
  tasks_ = std::move(tasks);
  levels_ = num_levels;
  serial_ = next_serial();
  utils_.reset(num_levels);
  for (const McTask& t : tasks_) {
    utils_.add(t);  // throws if t.level() > num_levels
  }
}

std::vector<McTask> TaskSet::release() noexcept {
  return std::move(tasks_);
}

double TaskSet::raw_level1_util() const {
  double total = 0.0;
  for (const McTask& t : tasks_) {
    total += t.utilization(1);
  }
  return total;
}

}  // namespace mcs
