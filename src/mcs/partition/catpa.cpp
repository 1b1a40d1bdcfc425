#include "mcs/partition/catpa.hpp"

#include "mcs/obs/metrics.hpp"
#include "mcs/obs/trace.hpp"

namespace mcs::partition {

namespace {
// Increments that differ by less than this are ties (the paper breaks ties
// toward the smaller core index); without the epsilon, floating-point noise
// of ~1e-16 from the theta/mu arithmetic would decide them arbitrarily.
constexpr double kTieEps = 1e-12;

obs::Counter& g_rebalance =
    obs::registry().counter("catpa.rebalance_placements");
obs::Counter& g_repair_calls = obs::registry().counter("catpa.repair_calls");
obs::Counter& g_repair_success =
    obs::registry().counter("catpa.repair_success");
obs::Counter& g_repair_relocations =
    obs::registry().counter("catpa.repair_relocations");

constexpr obs::TraceSite kPlaceSite{"catpa.place", "tasks", "cores"};
constexpr obs::TraceSite kRepairSite{"catpa.repair", "task", nullptr};
constexpr obs::TraceSite kRebalanceSite{"catpa.rebalance", "task", nullptr};
}  // namespace

CaTpaPartitioner::CaTpaPartitioner(CaTpaOptions options)
    : options_(std::move(options)) {
  if (!options_.display_name.empty()) {
    name_ = options_.display_name;
  } else if (options_.enable_repair) {
    name_ = "CA-TPA-R";
  } else {
    name_ = options_.use_imbalance_control ? "CA-TPA" : "CA-TPA/noBal";
  }
}

namespace {

/// Single-migration repair: tries to make room for `task` by relocating one
/// already-placed task from a candidate core to some other core.  On
/// success `task` is assigned, the cached utilizations are refreshed, and
/// true is returned; otherwise the partition (and the utilization cache) is
/// left exactly as it was — tentative moves go through relocate(), which
/// does not touch the cache.
///
/// The victims' refuge scans are batched per dest: no core's state changes
/// between the historical scalar refuge probes (every tentative relocate is
/// rolled back before the next attempt), so probing every victim of the
/// dest against all cores up front, one probe_all_cores call per victim,
/// yields bit-identical ProbeResults.  The task-on-dest re-probe stays
/// scalar — it runs against a partition that genuinely differs per attempt.
/// Accounting: each dest charges members x cores probes before its victim
/// loop, even when a repair succeeds partway through it.
bool try_repair(analysis::PlacementEngine& engine, std::size_t task,
                analysis::ProbePolicy policy,
                std::vector<analysis::ProbeResult>& probes) {
  const obs::ScopedSpan span(kRepairSite, task);
  const std::size_t cores = engine.num_cores();
  for (std::size_t dest = 0; dest < cores; ++dest) {
    // Candidate tasks to evict from `dest` (copy: we mutate the partition).
    const std::vector<std::size_t> members = engine.partition().tasks_on(dest);
    if (members.empty()) continue;
    probes.resize(members.size() * cores);
    for (std::size_t v = 0; v < members.size(); ++v) {
      engine.probe_all_cores(members[v], policy,
                             std::span(probes).subspan(v * cores, cores));
    }
    for (std::size_t v = 0; v < members.size(); ++v) {
      const std::size_t victim = members[v];
      const analysis::ProbeResult* victim_row = probes.data() + v * cores;
      for (std::size_t refuge = 0; refuge < cores; ++refuge) {
        if (refuge == dest) continue;
        const analysis::ProbeResult& victim_probe = victim_row[refuge];
        if (!victim_probe.feasible) continue;
        g_repair_relocations.add();
        engine.relocate(victim, refuge);
        const analysis::ProbeResult task_probe =
            engine.probe(task, dest, policy);
        if (task_probe.feasible) {
          engine.commit(task, dest, task_probe.new_util);
          engine.set_util(refuge, victim_probe.new_util);
          return true;
        }
        engine.relocate(victim, dest);
      }
    }
  }
  return false;
}

}  // namespace

PlacementOutcome CaTpaPartitioner::run_on(
    analysis::PlacementEngine& engine) const {
  const TaskSet& ts = engine.taskset();
  const std::size_t num_cores = engine.num_cores();
  const obs::ScopedSpan span(kPlaceSite, ts.size(), num_cores);
  const std::span<const std::size_t> order =
      options_.order_by_contribution ? engine.contribution_order()
                                     : engine.max_utilization_order();

  // The per-core vectors are the engine's buffers (sized by reset()).
  const std::span<analysis::ProbeResult> probes(engine.buffers().probes);
  const std::span<Candidate> candidates(engine.buffers().candidates);
  const std::span<unsigned char> feasible(engine.buffers().feasible);
  std::vector<analysis::ProbeResult> repair_probes;  // victims x cores tile

  PlacementOutcome outcome;
  for (std::size_t t : order) {
    // Imbalance fallback (Sec. III-C): when the partition has drifted out of
    // balance, place the task on the least-utilized feasible core.
    const bool rebalance = options_.use_imbalance_control &&
                           engine.imbalance() >= options_.alpha;
    if (rebalance) {
      g_rebalance.add();
      obs::trace_instant(kRebalanceSite, t);
    }

    // One batched all-cores probe, then reduce the result vector.
    // Selection key: current utilization when re-balancing (pick the
    // emptiest core), utilization increment otherwise (Algorithm 1 line 8).
    engine.probe_all_cores(t, options_.probe_policy, probes);
    for (std::size_t m = 0; m < num_cores; ++m) {
      feasible[m] = probes[m].feasible ? 1 : 0;
      candidates[m] = Candidate{
          rebalance ? engine.util(m) : probes[m].increment,
          probes[m].new_util};
    }
    const CoreChoice choice =
        reduce_core_choice(candidates, feasible, SelectionRule::kMinKey,
                           kTieEps);
    if (choice.core == kUnassigned) {
      if (options_.enable_repair) {
        g_repair_calls.add();
        if (try_repair(engine, t, options_.probe_policy, repair_probes)) {
          g_repair_success.add();
          continue;
        }
      }
      outcome.failed_task = t;
      outcome.success = false;
      return outcome;
    }
    engine.commit(t, choice.core, choice.payload);
  }
  outcome.success = true;
  return outcome;
}

}  // namespace mcs::partition
