#include "mcs/partition/ud_tpa.hpp"

#include <algorithm>
#include <stdexcept>

#include "mcs/obs/trace.hpp"
#include "mcs/partition/demand_ffd.hpp"

namespace mcs::partition {

namespace {

constexpr obs::TraceSite kPlaceSite{"ud_tpa.place", "tasks", "cores"};

double util_at(const McTask& task, Level k) {
  return task.wcet(k) / task.period();
}

}  // namespace

PlacementOutcome UdTpaPartitioner::run_on(
    analysis::PlacementEngine& engine) const {
  const TaskSet& ts = engine.taskset();
  const obs::ScopedSpan span(kPlaceSite, ts.size(), engine.num_cores());
  if (gate_ == UdGate::kGe && ts.num_levels() != 2) {
    throw std::invalid_argument(
        "UdTpaPartitioner: the GE gate requires a dual-criticality task set");
  }

  // diff_i = u_i(l_i) - u_i(1): zero for single-level tasks, which is what
  // routes them into phase 2.  Every buffer is the engine's, so a recycled
  // trial allocates nothing.
  analysis::PlacementEngine::SchemeBuffers& buffers = engine.buffers();
  std::vector<double>& diff = buffers.task_keys;
  std::vector<std::size_t>& multi = buffers.groups[0];
  std::vector<std::size_t>& single = buffers.groups[1];
  diff.assign(ts.size(), 0.0);
  multi.clear();
  single.clear();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const McTask& task = ts[i];
    if (task.level() >= 2) {
      diff[i] = util_at(task, task.level()) - util_at(task, 1);
      multi.push_back(i);
    } else {
      single.push_back(i);
    }
  }
  std::sort(multi.begin(), multi.end(), [&](std::size_t a, std::size_t b) {
    if (diff[a] != diff[b]) return diff[a] > diff[b];
    const double ua = util_at(ts[a], ts[a].level());
    const double ub = util_at(ts[b], ts[b].level());
    if (ua != ub) return ua > ub;
    return a < b;
  });
  std::sort(single.begin(), single.end(), [&](std::size_t a, std::size_t b) {
    const double ua = util_at(ts[a], 1);
    const double ub = util_at(ts[b], 1);
    if (ua != ub) return ua > ub;
    return a < b;
  });

  // The acceptance gate: one all-cores mask per task.  The GE gate works
  // off member lists, so it probes core by core.
  std::vector<std::size_t>& members = buffers.members;
  const auto gate = [&](std::size_t t, std::span<unsigned char> feasible) {
    switch (gate_) {
      case UdGate::kTheorem1:
        engine.probe_fits_all(t, feasible);
        return;
      case UdGate::kEq4:
        engine.probe_fits_basic_all(t, feasible);
        return;
      case UdGate::kGe:
        for (std::size_t m = 0; m < feasible.size(); ++m) {
          feasible[m] = demand_fits(engine, DemandTest::kGe, t, m, members);
        }
        return;
    }
  };

  // Phase 1: spread the utilization differences (worst-fit on diff load).
  std::vector<double>& diff_load = buffers.core_keys;
  diff_load.assign(engine.num_cores(), 0.0);
  PlacementOutcome outcome;
  outcome.failed_task = place_in_order_batched(
      engine, multi, SelectionRule::kMinKey,
      [&](std::size_t t, std::span<Candidate> candidates,
          std::span<unsigned char> feasible) {
        gate(t, feasible);
        for (std::size_t m = 0; m < candidates.size(); ++m) {
          candidates[m] = Candidate{diff_load[m], 0.0};
        }
      },
      [&](std::size_t t, const CoreChoice& choice) {
        engine.commit(t, choice.core);
        diff_load[choice.core] += diff[t];
      });

  // Phase 2: fill remaining LO-mode capacity (worst-fit on Eq. (4) load).
  if (!outcome.failed_task.has_value()) {
    outcome.failed_task = place_in_order_batched(
        engine, single, SelectionRule::kMinKey,
        [&](std::size_t t, std::span<Candidate> candidates,
            std::span<unsigned char> feasible) {
          gate(t, feasible);
          for (std::size_t m = 0; m < candidates.size(); ++m) {
            candidates[m] = Candidate{engine.load(m), 0.0};
          }
        },
        [&](std::size_t t, const CoreChoice& choice) {
          engine.commit(t, choice.core);
        });
  }

  outcome.success = !outcome.failed_task.has_value();
  return outcome;
}

}  // namespace mcs::partition
