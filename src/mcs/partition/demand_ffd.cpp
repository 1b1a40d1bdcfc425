#include "mcs/partition/demand_ffd.hpp"

#include <algorithm>
#include <stdexcept>

#include "mcs/analysis/dbf.hpp"
#include "mcs/analysis/ge_test.hpp"
#include "mcs/obs/trace.hpp"

namespace mcs::partition {

namespace {
constexpr obs::TraceSite kDbfPlaceSite{"dbf_ffd.place", "tasks", "cores"};
constexpr obs::TraceSite kGePlaceSite{"ge_ffd.place", "tasks", "cores"};
}  // namespace

bool demand_fits(analysis::PlacementEngine& engine, DemandTest test,
                 std::size_t t, std::size_t m,
                 std::vector<std::size_t>& members) {
  engine.count_probe();
  members = engine.partition().tasks_on(m);
  members.push_back(t);
  const TaskSet& ts = engine.taskset();
  return test == DemandTest::kDbf
             ? analysis::dbf_dual_test(ts, members).schedulable
             : analysis::ge_dual_schedulable(ts, members);
}

PlacementOutcome DemandFfdPartitioner::run_on(
    analysis::PlacementEngine& engine) const {
  const TaskSet& ts = engine.taskset();
  const obs::ScopedSpan span(
      test_ == DemandTest::kDbf ? kDbfPlaceSite : kGePlaceSite, ts.size(),
      engine.num_cores());
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(name() +
                                ": requires a dual-criticality task set");
  }
  std::vector<std::size_t>& members = engine.buffers().members;
  PlacementOutcome outcome;
  // First feasible core wins, so the fill probes cores in index order and
  // stops there; later cores are never probed (or counted).
  outcome.failed_task = place_in_order_batched(
      engine, engine.max_utilization_order(), SelectionRule::kFirstFeasible,
      [&](std::size_t t, std::span<Candidate> /*candidates*/,
          std::span<unsigned char> feasible) {
        std::fill(feasible.begin(), feasible.end(),
                  static_cast<unsigned char>(0));
        for (std::size_t m = 0; m < feasible.size(); ++m) {
          if (demand_fits(engine, test_, t, m, members)) {
            feasible[m] = 1;
            break;
          }
        }
      },
      [&](std::size_t t, const CoreChoice& choice) {
        engine.commit(t, choice.core);
      });
  outcome.success = !outcome.failed_task.has_value();
  return outcome;
}

}  // namespace mcs::partition
