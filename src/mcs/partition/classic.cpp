#include "mcs/partition/classic.hpp"

#include "mcs/obs/trace.hpp"

namespace mcs::partition {

namespace {
constexpr obs::TraceSite kPlaceSite{"classic.place", "tasks", "cores"};
}  // namespace

std::optional<std::size_t> allocate_with_rule(
    analysis::PlacementEngine& engine, std::span<const std::size_t> order,
    FitRule rule, TestStrength strength) {
  const bool basic_only = strength == TestStrength::kBasicOnly;
  const SelectionRule selection = rule == FitRule::kFirst
                                      ? SelectionRule::kFirstFeasible
                                      : SelectionRule::kMinKey;
  return place_in_order_batched(
      engine, order, selection,
      [&](std::size_t t, std::span<Candidate> candidates,
          std::span<unsigned char> feasible) {
        // One batched Eq. (4)/Theorem-1 accept mask over all cores.
        if (basic_only) {
          engine.probe_fits_basic_all(t, feasible);
        } else {
          engine.probe_fits_all(t, feasible);
        }
        if (rule == FitRule::kFirst) return;  // keys are never consulted
        for (std::size_t m = 0; m < feasible.size(); ++m) {
          if (!feasible[m]) continue;
          // Best fit wants the highest load; negate so the shared min-key
          // reduction picks it (IEEE negation is exact, so ties still break
          // toward the smaller core index).
          const double load = engine.load(m);
          candidates[m] = Candidate{rule == FitRule::kBest ? -load : load};
        }
      },
      [&](std::size_t t, const CoreChoice& choice) {
        engine.commit(t, choice.core);
      });
}

PlacementOutcome ClassicPartitioner::run_on(
    analysis::PlacementEngine& engine) const {
  const obs::ScopedSpan span(kPlaceSite, engine.taskset().size(),
                             engine.num_cores());
  PlacementOutcome outcome;
  outcome.failed_task = allocate_with_rule(
      engine, engine.max_utilization_order(), rule_, strength_);
  outcome.success = !outcome.failed_task.has_value();
  return outcome;
}

std::string ClassicPartitioner::name() const {
  std::string base = "classic";
  switch (rule_) {
    case FitRule::kFirst:
      base = "FFD";
      break;
    case FitRule::kBest:
      base = "BFD";
      break;
    case FitRule::kWorst:
      base = "WFD";
      break;
  }
  if (strength_ == TestStrength::kBasicOnly) base += "/eq4";
  return base;
}

}  // namespace mcs::partition
