#include "mcs/core/contributions.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace mcs {

double utilization_contribution(const TaskSet& ts, std::size_t task_index,
                                Level k) {
  const McTask& task = ts[task_index];
  if (k < 1 || k > task.level()) {
    throw std::out_of_range(
        "utilization_contribution: level outside the task's valid range");
  }
  const double total = ts.total_util(k);
  if (total <= 0.0) return 0.0;
  return task.utilization(k) / total;
}

std::vector<Contribution> utilization_contributions(const TaskSet& ts) {
  std::vector<Contribution> out;
  out.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    Contribution c{.task_index = i, .value = -1.0, .argmax_level = 1};
    for (Level k = 1; k <= ts[i].level(); ++k) {
      const double v = utilization_contribution(ts, i, k);
      if (v > c.value) {
        c.value = v;
        c.argmax_level = k;
      }
    }
    out.push_back(c);
  }
  return out;
}

namespace {

/// Sorts indices by a (key, level, index) triple into `out`: larger key
/// first, then higher criticality level, then smaller index.
void order_by_key(const TaskSet& ts, const std::vector<double>& key,
                  std::vector<std::size_t>& out) {
  out.resize(ts.size());
  std::iota(out.begin(), out.end(), std::size_t{0});
  std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    if (key[a] != key[b]) return key[a] > key[b];
    if (ts[a].level() != ts[b].level()) return ts[a].level() > ts[b].level();
    return a < b;
  });
}

}  // namespace

void order_by_contribution(const TaskSet& ts, std::vector<double>& keys,
                           std::vector<std::size_t>& out) {
  // C_i = max_k u_i(k) / U(k) (Eqs. 12-13), the value of
  // utilization_contributions, with each U(k) summed once per set.  The
  // totals sit past the N keys until the keys are done.
  const std::size_t n = ts.size();
  keys.resize(n + ts.num_levels());
  double* const total = keys.data() + n;
  for (Level k = 1; k <= ts.num_levels(); ++k) {
    total[k - 1] = ts.total_util(k);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const McTask& task = ts[i];
    double c = -1.0;
    for (Level k = 1; k <= task.level(); ++k) {
      const double u = total[k - 1];
      const double v = u <= 0.0 ? 0.0 : task.utilization(k) / u;
      if (v > c) c = v;
    }
    keys[i] = c;
  }
  keys.resize(n);
  order_by_key(ts, keys, out);
}

void order_by_max_utilization(const TaskSet& ts, std::vector<double>& keys,
                              std::vector<std::size_t>& out) {
  keys.resize(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    keys[i] = ts[i].max_utilization();
  }
  order_by_key(ts, keys, out);
}

std::vector<std::size_t> order_by_contribution(const TaskSet& ts) {
  std::vector<double> keys;
  std::vector<std::size_t> out;
  order_by_contribution(ts, keys, out);
  return out;
}

std::vector<std::size_t> order_by_max_utilization(const TaskSet& ts) {
  std::vector<double> keys;
  std::vector<std::size_t> out;
  order_by_max_utilization(ts, keys, out);
  return out;
}

}  // namespace mcs
