#include "mcs/partition/hybrid.hpp"

#include "mcs/obs/trace.hpp"
#include "mcs/partition/classic.hpp"

namespace mcs::partition {

namespace {
constexpr obs::TraceSite kPlaceSite{"hybrid.place", "tasks", "cores"};
}  // namespace

PlacementOutcome HybridPartitioner::run_on(
    analysis::PlacementEngine& engine) const {
  const TaskSet& ts = engine.taskset();
  const obs::ScopedSpan span(kPlaceSite, ts.size(), engine.num_cores());

  // Both groups are read off the engine's shared max-utilization order
  // (u descending, then level descending, then index ascending).  The
  // level-1 tasks keep it as is: u descending, then index ascending.  The
  // high group takes the levels from the highest down and keeps the order
  // within a level: level descending, then u descending, then index
  // ascending.  The groups live in the engine's buffers, so their capacity
  // outlives the run.
  const std::span<const std::size_t> order = engine.max_utilization_order();
  std::vector<std::size_t>& high = engine.buffers().groups[0];
  std::vector<std::size_t>& low = engine.buffers().groups[1];
  high.clear();
  low.clear();
  for (const std::size_t t : order) {
    if (ts[t].level() == 1) low.push_back(t);
  }
  for (Level level = ts.num_levels(); level >= 2; --level) {
    for (const std::size_t t : order) {
      if (ts[t].level() == level) high.push_back(t);
    }
  }

  PlacementOutcome outcome;
  outcome.failed_task = allocate_with_rule(engine, high, FitRule::kWorst);
  if (!outcome.failed_task) {
    outcome.failed_task = allocate_with_rule(engine, low, FitRule::kFirst);
  }
  outcome.success = !outcome.failed_task.has_value();
  return outcome;
}

}  // namespace mcs::partition
