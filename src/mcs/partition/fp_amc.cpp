#include "mcs/partition/fp_amc.hpp"

#include <algorithm>
#include <stdexcept>

#include "mcs/analysis/amc_rta.hpp"
#include "mcs/obs/trace.hpp"

namespace mcs::partition {

namespace {

constexpr obs::TraceSite kPlaceSite{"fp_amc.place", "tasks", "cores"};

/// AMC-rtb feasibility of core `core` with `task_index` tentatively added,
/// under the configured priority-assignment policy.
bool fits_amc(analysis::PlacementEngine& engine, std::size_t task_index,
              std::size_t core, PriorityAssignment assignment,
              std::vector<std::size_t>& members) {
  engine.count_probe();
  members = engine.partition().tasks_on(core);
  members.push_back(task_index);
  if (assignment == PriorityAssignment::kAudsley) {
    return analysis::audsley_assignment(engine.taskset(), members).has_value();
  }
  return analysis::amc_rtb_test(engine.taskset(), members).schedulable;
}

}  // namespace

PlacementOutcome FpAmcPartitioner::run_on(
    analysis::PlacementEngine& engine) const {
  const TaskSet& ts = engine.taskset();
  const obs::ScopedSpan span(kPlaceSite, ts.size(), engine.num_cores());
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(
        "FpAmcPartitioner: requires a dual-criticality task set");
  }

  // Criticality-first ordering (HI before LO), decreasing max utilization
  // within each group.
  std::vector<std::size_t> order(ts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (ts[a].level() != ts[b].level()) return ts[a].level() > ts[b].level();
    if (ts[a].max_utilization() != ts[b].max_utilization()) {
      return ts[a].max_utilization() > ts[b].max_utilization();
    }
    return a < b;
  });

  const SelectionRule selection = rule_ == FitRule::kFirst
                                      ? SelectionRule::kFirstFeasible
                                      : SelectionRule::kMinKey;
  std::vector<std::size_t> members;  // reused across probes
  PlacementOutcome outcome;
  // AMC-rtb feasibility works off member lists, not the utilization planes,
  // so the fill loops cores with the scalar test (count_probe per core
  // attempted inside fits_amc) and, under first-fit, early-exits at the
  // first feasible core — preserving the historical probe counts.
  outcome.failed_task = place_in_order_batched(
      order, engine.num_cores(), selection,
      [&](std::size_t t, std::span<Candidate> candidates,
          std::span<unsigned char> feasible) {
        std::fill(feasible.begin(), feasible.end(),
                  static_cast<unsigned char>(0));
        for (std::size_t m = 0; m < feasible.size(); ++m) {
          if (!fits_amc(engine, t, m, assignment_, members)) continue;
          feasible[m] = 1;
          if (rule_ == FitRule::kFirst) break;  // first feasible wins
          const double load = engine.load(m);
          candidates[m] = Candidate{rule_ == FitRule::kBest ? -load : load};
        }
      },
      [&](std::size_t t, const CoreChoice& choice) {
        engine.commit(t, choice.core);
      });
  outcome.success = !outcome.failed_task.has_value();
  return outcome;
}

// The default configuration (first-fit + DM) is the registry's "FP-AMC" and
// must render as exactly that string (the name() == spec invariant the docs
// tooling and artifact provenance rely on); non-default variants carry
// their fit-rule / OPA suffixes.
std::string FpAmcPartitioner::name() const {
  std::string base = "FP-AMC";
  switch (rule_) {
    case FitRule::kFirst:
      break;
    case FitRule::kBest:
      base += "/BF";
      break;
    case FitRule::kWorst:
      base += "/WF";
      break;
  }
  if (assignment_ == PriorityAssignment::kAudsley) base += "/OPA";
  return base;
}

}  // namespace mcs::partition
