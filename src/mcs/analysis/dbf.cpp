#include "mcs/analysis/dbf.hpp"

#include <stdexcept>

#include "mcs/analysis/demand_core.hpp"

namespace mcs::analysis {

namespace {
/// The uncredited step curves of [20], in the demand and in the gate alike.
constexpr demand::Formula kFormula = demand::Formula::kStep;
}  // namespace

double dbf_lo(const McTask& task, double t, double x) {
  const double d =
      task.level() >= 2 ? x * task.period() : task.period();
  return demand::curve_demand<kFormula>({d, task.period(), task.wcet(1)}, t);
}

double dbf_hi(const McTask& task, double t, double x) {
  if (task.level() < 2) return 0.0;
  const double d = task.period() - x * task.period();
  return demand::curve_demand<kFormula>({d, task.period(), task.wcet(2)}, t);
}

DbfResult dbf_dual_test(const TaskSet& ts,
                        std::span<const std::size_t> members) {
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(
        "dbf_dual_test: requires a dual-criticality task set");
  }
  if (members.empty()) return DbfResult{.schedulable = true, .scale = 1.0};
  const std::optional<double> x = demand::uniform_scale<kFormula>(ts, members);
  if (!x) return DbfResult{};
  return DbfResult{.schedulable = true, .scale = *x};
}

DbfResult dbf_dual_test(const TaskSet& ts) {
  std::vector<std::size_t> all(ts.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return dbf_dual_test(ts, all);
}

}  // namespace mcs::analysis
