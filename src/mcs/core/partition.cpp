#include "mcs/core/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcs {

Partition::Partition(const TaskSet& ts, std::size_t num_cores) : ts_(&ts) {
  reset(ts, num_cores);
}

void Partition::reset(const TaskSet& ts, std::size_t num_cores) {
  if (num_cores == 0) {
    throw std::invalid_argument("Partition: need at least one core");
  }
  ts_ = &ts;
  members_.resize(num_cores);
  for (std::vector<std::size_t>& members : members_) members.clear();
  planes_.reset(ts.num_levels(), num_cores);
  core_of_.assign(ts.size(), kUnassigned);
  assigned_ = 0;
}

void Partition::assign(std::size_t task_index, std::size_t core) {
  if (task_index >= ts_->size()) {
    throw std::out_of_range("Partition::assign: task index out of range");
  }
  if (core >= members_.size()) {
    throw std::out_of_range("Partition::assign: core index out of range");
  }
  if (core_of_[task_index] != kUnassigned) {
    throw std::logic_error("Partition::assign: task already assigned");
  }
  members_[core].push_back(task_index);
  planes_.add((*ts_)[task_index], core);
  core_of_[task_index] = core;
  ++assigned_;
}

void Partition::unassign(std::size_t task_index) {
  if (task_index >= ts_->size()) {
    throw std::out_of_range("Partition::unassign: task index out of range");
  }
  const std::size_t core = core_of_[task_index];
  if (core == kUnassigned) {
    throw std::logic_error("Partition::unassign: task is not assigned");
  }
  auto& members = members_[core];
  members.erase(std::find(members.begin(), members.end(), task_index));
  planes_.remove((*ts_)[task_index], core);
  core_of_[task_index] = kUnassigned;
  --assigned_;
}

UtilMatrix Partition::utils_on(std::size_t core) const {
  UtilMatrix out(planes_.num_levels());
  utils_on(core, out);
  return out;
}

void Partition::utils_on(std::size_t core, UtilMatrix& out) const {
  planes_.copy_lane(core, tasks_on(core).size(), out);
}

}  // namespace mcs
