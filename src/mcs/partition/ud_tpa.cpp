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
  // routes them into phase 2.
  std::vector<double> diff(ts.size(), 0.0);
  std::vector<std::size_t> multi;
  std::vector<std::size_t> single;
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

  std::vector<double> diff_load(engine.num_cores(), 0.0);
  PlacementOutcome outcome;

  // Worst-fit keys: phase 1 spreads the utilization differences, phase 2
  // fills remaining LO-mode capacity by Eq. (4) load.  Both are maintained
  // outside the probes, so they are always fresh for the 2-D lookahead.
  const auto phase1_keys = [&](std::size_t, std::span<Candidate> candidates) {
    for (std::size_t m = 0; m < candidates.size(); ++m) {
      candidates[m] = Candidate{diff_load[m], 0.0};
    }
  };
  const auto phase2_keys = [&](std::size_t, std::span<Candidate> candidates) {
    for (std::size_t m = 0; m < candidates.size(); ++m) {
      candidates[m] = Candidate{engine.load(m), 0.0};
    }
  };
  const auto phase1_place = [&](std::size_t t, const CoreChoice& choice) {
    engine.commit(t, choice.core);
    diff_load[choice.core] += diff[t];
  };
  const auto phase2_place = [&](std::size_t t, const CoreChoice& choice) {
    engine.commit(t, choice.core);
  };

  if (gate_ != UdGate::kGe) {
    // Plane-backed gates (Theorem 1 / Eq. 4) are per-core pure, so both
    // phases run on the 2-D lookahead skeleton: one task x core tile gate,
    // dirty columns re-gated per task by a scalar single-core probe.
    const auto gate_tile = [&](std::span<const std::size_t> tile,
                               std::span<unsigned char> rows) {
      if (gate_ == UdGate::kTheorem1) {
        engine.probe_fits_all_2d(tile, rows);
      } else {
        engine.probe_fits_basic_all_2d(tile, rows);
      }
    };
    const auto regate = [&](std::size_t t, std::size_t m) {
      return gate_ == UdGate::kTheorem1 ? engine.probe_fits(t, m)
                                        : engine.probe_fits_basic(t, m);
    };
    outcome.failed_task = place_in_order_batched_2d(
        multi, engine.num_cores(), SelectionRule::kMinKey, gate_tile, regate,
        phase1_keys, phase1_place);
    if (!outcome.failed_task.has_value()) {
      outcome.failed_task = place_in_order_batched_2d(
          single, engine.num_cores(), SelectionRule::kMinKey, gate_tile,
          regate, phase2_keys, phase2_place);
    }
    outcome.success = !outcome.failed_task.has_value();
    return outcome;
  }

  // GE gate: GE-FFD's member-list gate on every core.  It has no
  // plane-backed 2-D form, so it stays on the 1-D skeleton.
  std::vector<std::size_t> members;  // reused across GE probes
  const auto gate = [&](std::size_t t, std::span<unsigned char> feasible) {
    for (std::size_t m = 0; m < feasible.size(); ++m) {
      feasible[m] = demand_fits(engine, DemandTest::kGe, t, m, members);
    }
  };

  // Phase 1: spread the utilization differences (worst-fit on diff load).
  outcome.failed_task = place_in_order_batched(
      multi, engine.num_cores(), SelectionRule::kMinKey,
      [&](std::size_t t, std::span<Candidate> candidates,
          std::span<unsigned char> feasible) {
        gate(t, feasible);
        phase1_keys(t, candidates);
      },
      phase1_place);

  // Phase 2: fill remaining LO-mode capacity (worst-fit on Eq. (4) load).
  if (!outcome.failed_task.has_value()) {
    outcome.failed_task = place_in_order_batched(
        single, engine.num_cores(), SelectionRule::kMinKey,
        [&](std::size_t t, std::span<Candidate> candidates,
            std::span<unsigned char> feasible) {
          gate(t, feasible);
          phase2_keys(t, candidates);
        },
        phase2_place);
  }

  outcome.success = !outcome.failed_task.has_value();
  return outcome;
}

}  // namespace mcs::partition
