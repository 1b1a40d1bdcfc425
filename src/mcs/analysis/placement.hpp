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
//   * the unified probe counter every scheme reports,
//   * the two task orders the schemes place in (maximum utilization and
//     CA-TPA contribution), each sorted once per task set and shared by
//     every scheme run on that set,
//   * the lane and task buffers the schemes fill per task (SchemeBuffers).
//
// Probes evaluate exactly the same arithmetic as the historical free
// functions (fits / fits_basic_only / probe_assignment), so partitioning
// decisions are bit-identical; see tests/partition/placement_parity_test.
// The batched probes are in turn bit-identical to the scalar ones (see
// batch_probe.hpp and the probe-parity fuzz target).
//
// Engines are reusable across task sets via reset() — the Monte-Carlo
// harness keeps one engine per worker chunk so per-trial state (planes,
// lane scratch, orders and scheme buffers included) is recycled instead of
// reallocated: the paper's schemes run a trial without a heap allocation
// (tests/partition/allocation_free_test).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mcs/analysis/batch_probe.hpp"
#include "mcs/analysis/core_util.hpp"
#include "mcs/core/partition.hpp"

namespace mcs::analysis {

/// A feasible placement option for one (task, core) pair as seen by a
/// scheme's core scan: its selection key (lower wins) plus one
/// scheme-specific datum carried through to the commit step (CA-TPA stores
/// the probed core utilization so the cache can be updated without
/// re-probing).
struct Candidate {
  double key = 0.0;
  double payload = 0.0;
};

class PlacementEngine {
 public:
  /// An engine not yet bound to a task set; call reset() before use.
  PlacementEngine() = default;

  PlacementEngine(const TaskSet& ts, std::size_t num_cores) {
    reset(ts, num_cores);
  }

  /// Rebinds to a task set / core count: clears the partition, cached
  /// utilizations and the probe counter, reusing all buffers.  The task
  /// orders are kept: they are re-sorted only once a set with another
  /// serial asks for them.  The scheme buffers are resized to the cores.
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

  // --- Task orders (sorted once per task set) -----------------------------

  /// The bound set's task indices by decreasing maximum utilization, ties
  /// to the higher level, then the smaller index (order_by_max_utilization).
  /// Sorted on the first call for a set's TaskSet::serial() and returned
  /// as-is until a set with another serial is bound, so every scheme run
  /// on one trial shares one sort.  The span stays valid until the next
  /// call that sorts again.
  [[nodiscard]] std::span<const std::size_t> max_utilization_order();

  /// The CA-TPA contribution order (order_by_contribution), cached the
  /// same way.
  [[nodiscard]] std::span<const std::size_t> contribution_order();

  // --- Scheme buffers -------------------------------------------------------

  /// What a scheme fills per task.  Kept by the engine so their capacity
  /// outlives a run; their contents are scratch that any scheme may
  /// overwrite.
  struct SchemeBuffers {
    std::vector<Candidate> candidates;    ///< one per core
    std::vector<unsigned char> feasible;  ///< one per core
    std::vector<ProbeResult> probes;      ///< one per core
    /// Task groups placed one after the other (Hybrid: high, then low).
    std::array<std::vector<std::size_t>, 2> groups;
  };

  /// The scheme buffers; the per-core ones hold num_cores() entries.
  [[nodiscard]] SchemeBuffers& buffers() noexcept { return buffers_; }

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

  /// The sort of one order: keys into the first buffer, the order into
  /// the second.
  using OrderSort = void (*)(const TaskSet&, std::vector<double>&,
                             std::vector<std::size_t>&);

  /// One cached order: the serial of the set it was sorted for (0 = none;
  /// serials start at 1) and its buffer, whose capacity outlives the set.
  /// Keyed on the serial, not the set's address: a recycled trial shell
  /// keeps its address across trials.
  struct CachedOrder {
    std::uint64_t serial = 0;
    std::vector<std::size_t> order;

    /// The order of `ts`, sorted by `sort` into the buffer unless it
    /// already holds the order of ts's serial.
    std::span<const std::size_t> of(const TaskSet& ts,
                                    std::vector<double>& keys,
                                    OrderSort sort);
  };

  std::optional<Partition> partition_;
  CachedOrder max_util_order_;
  CachedOrder contribution_order_;
  std::vector<double> order_keys_;  ///< sort keys of either order
  SchemeBuffers buffers_;
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
