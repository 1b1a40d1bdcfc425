// PlacementEngine: incremental feasibility probing for partitioners.
//
// Every partitioning scheme in this repository follows the same probe loop:
// "what happens to core m if task tau_i joins it?", evaluated thousands of
// times per task set and tens of millions of times per Monte-Carlo point.
// Historically each probe copied the core's UtilMatrix into a freshly
// allocated hypothetical matrix and ran the Theorem-1 test into freshly
// allocated result vectors — five heap allocations per probe.
//
// The engine owns all per-core placement state and makes a probe
// allocation-free:
//   * the Partition itself, whose struct-of-arrays level-utilization planes
//     (LevelUtilPlanes, the only copy of the per-core utilizations) feed
//     the batched all-cores probes directly,
//   * one reusable scratch UtilMatrix (a scalar probe copies core m's lane
//     into it, reusing its storage) and one scratch Theorem1Result for the
//     scalar reference probes, plus the batched kernel's lane scratch,
//   * cached core utilizations U^{Psi_m} with running min/max trackers for
//     the Lambda imbalance check (Sec. III-C),
//   * the unified probe counter every scheme reports.
//
// Probes evaluate exactly the same arithmetic as the historical free
// functions (fits / fits_basic_only / probe_assignment), so partitioning
// decisions are bit-identical; see tests/partition/placement_parity_test.
// The batched probes are in turn bit-identical to the scalar ones (see
// batch_probe.hpp and the probe-parity fuzz target).
//
// Probe accounting: one batched all-cores call counts num_cores() probes —
// exactly what the scalar core-scan loop it replaces would have counted
// when every core is probed.  Schemes that used to early-exit a first-fit
// scan (FFD, Hybrid's FFD phase) therefore report more probes than before;
// the golden parity file and EXPERIMENTS.md counter panels were regenerated
// under this rule (partitions themselves are unchanged).
//
// Engines are reusable across task sets via reset() — the Monte-Carlo
// harness keeps one engine per worker chunk so per-trial state (planes and
// lane scratch included) is recycled instead of reallocated.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "mcs/analysis/batch_probe.hpp"
#include "mcs/analysis/core_util.hpp"
#include "mcs/core/partition.hpp"

namespace mcs::analysis {

class PlacementEngine {
 public:
  /// An engine not yet bound to a task set; call reset() before use.
  PlacementEngine() = default;

  PlacementEngine(const TaskSet& ts, std::size_t num_cores) {
    reset(ts, num_cores);
  }

  /// Rebinds to a task set / core count: clears the partition, cached
  /// utilizations and the probe counter, reusing all buffers.
  void reset(const TaskSet& ts, std::size_t num_cores);

  [[nodiscard]] bool bound() const noexcept { return partition_.has_value(); }
  [[nodiscard]] const Partition& partition() const { return *partition_; }
  [[nodiscard]] const TaskSet& taskset() const {
    return partition_->taskset();
  }
  [[nodiscard]] std::size_t num_cores() const {
    return partition_->num_cores();
  }

  /// Moves the partition out (for callers that outlive the engine).  The
  /// engine must be reset() before further use.
  [[nodiscard]] Partition take_partition() && { return *std::move(partition_); }

  // --- Probes (each call counts one probe toward probes()) ---------------

  /// CA-TPA probe (Eq. 14-15): utilization of core `core` with `task`
  /// hypothetically added, folded per `policy`; the increment is measured
  /// against the cached core utilization util(core).
  [[nodiscard]] ProbeResult probe(std::size_t task, std::size_t core,
                                  ProbePolicy policy);

  /// Baseline feasibility: Eq. (4) fast path, Theorem 1 fallback — the
  /// order the paper prescribes for FFD/BFD/WFD/Hybrid.
  [[nodiscard]] bool probe_fits(std::size_t task, std::size_t core);

  /// Eq. (4) only (ablation A4).
  [[nodiscard]] bool probe_fits_basic(std::size_t task, std::size_t core);

  // --- Batched probes (each call counts num_cores() probes) ---------------

  /// Evaluates probe(task, m, policy) for every core m in one
  /// struct-of-arrays pass over the level-utilization planes.
  /// out.size() must equal num_cores(); out[m] is bit-identical to the
  /// scalar probe's result.  Counts num_cores() probes.
  void probe_all_cores(std::size_t task, ProbePolicy policy,
                       std::span<ProbeResult> out);

  /// Batched Eq. (4)/Theorem-1 accept mask: out[m] == probe_fits(task, m).
  /// out.size() must equal num_cores().  Counts num_cores() probes.
  void probe_fits_all(std::size_t task, std::span<unsigned char> out);

  /// Batched Eq. (4)-only mask: out[m] == probe_fits_basic(task, m).
  /// out.size() must equal num_cores().  Counts num_cores() probes.
  void probe_fits_basic_all(std::size_t task, std::span<unsigned char> out);

  // --- 2-D batched probes (each call counts tasks.size() * num_cores()
  // probes — the T 1-D scans it replaces, charged up front regardless of
  // how the caller consumes the tile) -------------------------------------

  /// Evaluates probe(t, m, policy) for every task t in `tasks` and every
  /// core m in one task-major tiled pass.  out.size() must equal
  /// tasks.size() * num_cores(); row t (out[t * num_cores() + m]) is
  /// bit-identical to the 1-D probe_all_cores(tasks[t], ...) row.
  void probe_all_cores_2d(std::span<const std::size_t> tasks,
                          ProbePolicy policy, std::span<ProbeResult> out);

  /// 2-D accept mask: out[t * num_cores() + m] == probe_fits(tasks[t], m).
  void probe_fits_all_2d(std::span<const std::size_t> tasks,
                         std::span<unsigned char> out);

  /// 2-D Eq. (4)-only mask.
  void probe_fits_basic_all_2d(std::span<const std::size_t> tasks,
                               std::span<unsigned char> out);

  /// Counts one probe for schemes whose feasibility test lives outside the
  /// utilization framework (DBF, AMC-rtb response times).
  void count_probe() noexcept { ++probes_; }

  [[nodiscard]] std::size_t probes() const noexcept { return probes_; }

  // --- Placement state ----------------------------------------------------

  /// Assigns `task` to `core` without touching the cached utilization (for
  /// schemes that track load, not U^{Psi_m}).
  void commit(std::size_t task, std::size_t core);

  /// Assigns `task` to `core` and caches `new_util` (typically the
  /// ProbeResult::new_util of the probe that chose the core).
  void commit(std::size_t task, std::size_t core, double new_util);

  /// Removes `task` from its core.  The cached utilization of that core is
  /// left untouched — callers juggling tentative moves (repair) manage the
  /// cache explicitly via set_util().
  void uncommit(std::size_t task);

  /// uncommit + commit without cache updates: moves `task` to `core`.
  void relocate(std::size_t task, std::size_t core);

  /// Cached U^{Psi_m} of core m (0 for untracked/empty cores).
  [[nodiscard]] double util(std::size_t core) const { return util_[core]; }

  /// Overwrites the cached utilization of core m.
  void set_util(std::size_t core, double value);

  /// Classical bin-packing load of core m: the Eq. (4) own-level sum.
  [[nodiscard]] double load(std::size_t core) const {
    return partition_->planes().own_level_sum(core);
  }

  /// Imbalance factor Lambda = (U_sys - U_min) / U_sys over the cached core
  /// utilizations (Eq. 16); 0 when U_sys == 0.  Maintained by running
  /// min/max trackers, falling back to an O(M) rescan only when a commit
  /// displaced the current extremum.
  [[nodiscard]] double imbalance() const;

 private:
  [[nodiscard]] const UtilMatrix& with_task(std::size_t task,
                                            std::size_t core);

  std::optional<Partition> partition_;
  BatchProbeScratch batch_scratch_;
  std::vector<double> batch_util_;  ///< batched new-utilization lane buffer
  std::vector<unsigned char> batch_basic_;  ///< batched Eq. (4) mask buffer
  UtilMatrix scratch_{1};
  Theorem1Result test_scratch_;
  std::vector<double> util_;
  std::size_t probes_ = 0;

  mutable double max_util_ = 0.0;
  mutable double min_util_ = 0.0;
  mutable bool minmax_valid_ = true;
};

}  // namespace mcs::analysis
