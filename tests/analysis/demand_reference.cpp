#include "demand_reference.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mcs/analysis/edfvd.hpp"

namespace mcs::analysis::reference {

namespace {

// The gates' fixed search parameters, copied rather than shared so that a
// change on the library side shows up as a parity failure.
constexpr double kHorizonCap = 100000.0;
constexpr std::size_t kScaleGrid = 20;
constexpr std::size_t kGreedyIterCap = 48;

}  // namespace

// ---------------------------------------------------------------------------
// ge_dual_test (credited Ekberg-Yi curves, uniform tier then greedy tuning)
// ---------------------------------------------------------------------------

namespace {

using demand::Curve;
using demand::Formula;

template <Formula F>
double demand_at(const Curve& c, double t) {
  if (t < c.d0 - 1e-9) return 0.0;
  const double jobs = std::floor((t - c.d0) / c.period + 1e-9) + 1.0;
  if constexpr (F == Formula::kStep) {
    return jobs * c.cost;
  } else {
    const double r = (t - c.d0) - (jobs - 1.0) * c.period;
    return jobs * c.cost - std::max(0.0, c.credit - r);
  }
}

std::optional<double> analysis_bound(const std::vector<Curve>& curves) {
  double slope = 0.0;
  double intercept = 0.0;
  for (const Curve& c : curves) {
    slope += c.cost / c.period;
    intercept += c.cost * std::max(0.0, 1.0 - c.d0 / c.period);
  }
  if (slope >= 1.0 - 1e-12) {
    return intercept <= 1e-12 && slope <= 1.0 + 1e-12
               ? std::optional<double>(0.0)
               : std::nullopt;
  }
  return intercept / (1.0 - slope);
}

}  // namespace

// ---------------------------------------------------------------------------
// first_violation (the exact sum at every distinct breakpoint)
// ---------------------------------------------------------------------------

template <Formula F>
std::optional<double> first_violation(std::span<const Curve> curves,
                                      double bound, ScanStats* stats) {
  struct Lane {
    double next;
    std::size_t curve;
  };
  const auto later = [](const Lane& a, const Lane& b) {
    return a.next > b.next;
  };
  std::vector<Lane> heap;
  heap.reserve(curves.size() * 2);
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const Curve& c = curves[i];
    if (c.cost <= 0.0) continue;
    if (c.d0 <= bound + 1e-9) heap.push_back({c.d0, i});
    if (F == Formula::kCredited && c.credit > 0.0 &&
        c.d0 + c.credit <= bound + 1e-9) {
      heap.push_back({c.d0 + c.credit, i});
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);
  double last = -1.0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Lane lane = heap.back();
    heap.pop_back();
    const double t = lane.next;
    lane.next += curves[lane.curve].period;
    if (lane.next <= bound + 1e-9) {
      heap.push_back(lane);
      std::push_heap(heap.begin(), heap.end(), later);
    }
    if (t == last) continue;
    last = t;
    double demand = 0.0;
    for (const Curve& c : curves) demand += demand_at<F>(c, t);
    if (stats != nullptr) {
      ++stats->breakpoints;
      if (std::abs(demand - (t + 1e-9)) <= 1e-12) ++stats->near_ties;
    }
    if (demand > t + 1e-9) return t;
  }
  return std::nullopt;
}

template std::optional<double> first_violation<Formula::kStep>(
    std::span<const Curve>, double, ScanStats*);
template std::optional<double> first_violation<Formula::kCredited>(
    std::span<const Curve>, double, ScanStats*);

// ---------------------------------------------------------------------------
// ge_dual_test (credited Ekberg-Yi curves, uniform tier then greedy tuning)
// ---------------------------------------------------------------------------

namespace {

void build_curves(const TaskSet& ts, std::span<const std::size_t> members,
                  std::span<const double> scales,
                  std::vector<Curve>& lo_curves,
                  std::vector<Curve>& hi_curves) {
  lo_curves.clear();
  hi_curves.clear();
  for (std::size_t m = 0; m < members.size(); ++m) {
    const McTask& task = ts[members[m]];
    const double period = task.period();
    if (task.level() == 2) {
      const double v = scales[m] * period;
      lo_curves.push_back({v, period, task.wcet(1), 0.0});
      hi_curves.push_back({period - v, period, task.wcet(2), task.wcet(1)});
    } else {
      lo_curves.push_back({period, period, task.wcet(1), 0.0});
    }
  }
}

/// Counts into `lo_scans` when the LO scan runs.
std::optional<std::pair<int, double>> ge_violation(
    const TaskSet& ts, std::span<const std::size_t> members,
    std::span<const double> scales, std::size_t* lo_scans = nullptr) {
  std::vector<Curve> lo_curves;
  std::vector<Curve> hi_curves;
  build_curves(ts, members, scales, lo_curves, hi_curves);
  int mode = 0;
  for (const auto* curves : {&lo_curves, &hi_curves}) {
    const std::optional<double> bound = analysis_bound(*curves);
    if (!bound || *bound > kHorizonCap) {
      return std::make_pair(mode, 0.0);
    }
    if (*bound > 0.0) {
      if (mode == 0 && lo_scans != nullptr) ++*lo_scans;
      if (const auto t =
              reference::first_violation<Formula::kCredited>(
                  *curves, *bound)) {
        return std::make_pair(mode, *t);
      }
    }
    ++mode;
  }
  return std::nullopt;
}

/// The mode whose check failed at uniform scale x (0 = LO, 1 = HI), or
/// nullopt when both pass.
std::optional<int> uniform_violation(const TaskSet& ts,
                                     std::span<const std::size_t> members,
                                     double x, std::vector<double>& scales) {
  for (std::size_t m = 0; m < members.size(); ++m) {
    scales[m] = ts[members[m]].level() == 2 ? x : 1.0;
  }
  const auto violation = ge_violation(ts, members, scales);
  if (!violation) return std::nullopt;
  return violation->first;
}

/// Counts the candidates a monotone exit covers (see UniformTier).
class ExitCounter {
 public:
  explicit ExitCounter(UniformTier* uniform) : uniform_(uniform) {}

  /// Counts candidate x before it is judged.
  void judge(double x) const {
    if (uniform_ == nullptr) return;
    uniform_->lo_exits += x <= lo_failed_ ? 1u : 0u;
    uniform_->hi_exits += x >= hi_failed_ ? 1u : 0u;
  }

  /// Records that candidate x failed in `mode`.
  void failed(double x, int mode) {
    if (mode == 0) {
      lo_failed_ = std::max(lo_failed_, x);
    } else {
      hi_failed_ = std::min(hi_failed_, x);
    }
  }

 private:
  UniformTier* uniform_;
  double lo_failed_ = -1.0;
  double hi_failed_ = 2.0;
};

GeResult accept(const TaskSet& ts, std::span<const std::size_t> members,
                std::span<const double> scales) {
  GeResult result;
  result.schedulable = true;
  result.scales.assign(ts.size(), 1.0);
  for (std::size_t m = 0; m < members.size(); ++m) {
    result.scales[members[m]] = scales[m];
  }
  return result;
}

}  // namespace

GeResult ge_dual_test(const TaskSet& ts, std::span<const std::size_t> members,
                      GeTuning* tuning, UniformTier* uniform) {
  GeTuning local;
  GeTuning& trace = tuning != nullptr ? *tuning : local;
  trace = GeTuning{};
  if (uniform != nullptr) *uniform = UniformTier{};
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(
        "ge_dual_test: requires a dual-criticality task set");
  }
  GeResult result;
  result.scales.assign(ts.size(), 1.0);
  if (members.empty()) {
    result.schedulable = true;
    return result;
  }

  UtilMatrix u(2);
  for (std::size_t i : members) u.add(ts[i]);
  std::vector<double> candidates{1.0};
  const double u22 = u.level_util(2, 2);
  if (u22 > 0.0 && u22 < 1.0) candidates.push_back(1.0 - u22);
  candidates.push_back(dual_scaling_factor(u));
  for (std::size_t g = 1; g <= kScaleGrid; ++g) {
    candidates.push_back(static_cast<double>(g) /
                         static_cast<double>(kScaleGrid));
  }
  std::vector<double> scales(members.size(), 1.0);
  ExitCounter exits(uniform);
  for (double x : candidates) {
    if (x <= 0.0 || x > 1.0) continue;
    exits.judge(x);
    const std::optional<int> mode = uniform_violation(ts, members, x, scales);
    if (!mode) return accept(ts, members, scales);
    exits.failed(x, *mode);
  }

  const double step = 1.0 / static_cast<double>(kScaleGrid);
  std::size_t hi_count = 0;
  for (std::size_t m : members) hi_count += ts[m].level() == 2 ? 1u : 0u;
  if (hi_count == 0) return result;
  trace.entered = true;
  for (std::size_t m = 0; m < members.size(); ++m) {
    scales[m] = ts[members[m]].level() == 2 ? 0.5 : 1.0;
  }
  const std::size_t max_iter =
      std::min(8 * kScaleGrid * (hi_count + 1), kGreedyIterCap);

  std::size_t last_moved = members.size();
  double last_prior = 0.0;
  bool after_lo_move = false;
  std::vector<std::vector<double>> visited{scales};  // after 0, 1, ... moves
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    const auto violation = ge_violation(
        ts, members, scales,
        after_lo_move ? &trace.lo_scans_after_lo_move : nullptr);
    if (!violation) return accept(ts, members, scales);
    const auto [mode, t] = *violation;
    std::size_t best = members.size();
    double best_demand = 0.0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const McTask& task = ts[members[m]];
      if (task.level() != 2) continue;
      const double period = task.period();
      double demand;
      bool movable;
      if (mode == 0) {
        const Curve c{scales[m] * period, period, task.wcet(1), 0.0};
        demand = demand_at<Formula::kCredited>(c, t);
        movable = scales[m] <= 1.0 - step * 0.5;
      } else {
        demand = ge_dbf_hi(task, t, scales[m]);
        movable = scales[m] >= 2.0 * step - step * 0.5;
      }
      if (movable && demand > best_demand) {
        best_demand = demand;
        best = m;
      }
    }
    if (best == members.size() || best_demand <= 0.0) return result;
    const double prior = scales[best];
    scales[best] += mode == 0 ? step : -step;
    after_lo_move = mode == 0;
    ++trace.moves;
    if (best == last_moved && scales[best] == last_prior) {
      trace.undid_move = true;
    }
    last_moved = best;
    last_prior = prior;
    for (std::size_t j = 0; j < visited.size() && trace.repeat_at == 0; ++j) {
      if (visited[j] == scales) {
        trace.repeat_at = trace.moves;
        trace.cycle = trace.moves - j;
      }
    }
    visited.push_back(scales);
  }
  trace.hit_cap = true;
  return result;
}

// ---------------------------------------------------------------------------
// dbf_dual_test (uncredited step curves, uniform scales only)
// ---------------------------------------------------------------------------

namespace {

/// The mode whose check failed at scale x (0 = LO, 1 = HI), or nullopt
/// when both pass.
std::optional<int> violation_at_scale(const TaskSet& ts,
                                      std::span<const std::size_t> members,
                                      double x) {
  std::vector<Curve> lo_curves;
  std::vector<Curve> hi_curves;
  for (std::size_t i : members) {
    const McTask& task = ts[i];
    const double period = task.period();
    if (task.level() == 2) {
      lo_curves.push_back({x * period, period, task.wcet(1)});
      hi_curves.push_back({period - x * period, period, task.wcet(2)});
    } else {
      lo_curves.push_back({period, period, task.wcet(1)});
    }
  }
  int mode = 0;
  for (const auto* curves : {&lo_curves, &hi_curves}) {
    const std::optional<double> bound = analysis_bound(*curves);
    if (!bound) return mode;
    if (*bound > kHorizonCap) return mode;
    if (*bound > 0.0 &&
        reference::first_violation<Formula::kStep>(*curves, *bound)) {
      return mode;
    }
    ++mode;
  }
  return std::nullopt;
}

}  // namespace

DbfResult dbf_dual_test(const TaskSet& ts,
                        std::span<const std::size_t> members,
                        UniformTier* uniform) {
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(
        "dbf_dual_test: requires a dual-criticality task set");
  }
  if (uniform != nullptr) *uniform = UniformTier{};
  if (members.empty()) return DbfResult{.schedulable = true, .scale = 1.0};

  UtilMatrix u(2);
  for (std::size_t i : members) u.add(ts[i]);
  std::vector<double> candidates{1.0};
  const double u22 = u.level_util(2, 2);
  if (u22 > 0.0 && u22 < 1.0) candidates.push_back(1.0 - u22);
  candidates.push_back(dual_scaling_factor(u));
  for (std::size_t g = 1; g <= kScaleGrid; ++g) {
    candidates.push_back(static_cast<double>(g) /
                         static_cast<double>(kScaleGrid));
  }
  ExitCounter exits(uniform);
  for (double x : candidates) {
    if (x <= 0.0 || x > 1.0) continue;
    exits.judge(x);
    const std::optional<int> mode = violation_at_scale(ts, members, x);
    if (!mode) return DbfResult{.schedulable = true, .scale = x};
    exits.failed(x, *mode);
  }
  return DbfResult{};
}

}  // namespace mcs::analysis::reference
