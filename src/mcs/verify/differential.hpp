// Differential checkers: two independent computations of the same fact must
// agree.
//
// Each checker pits a fast/incremental/claimed result against a naive
// from-scratch recomputation:
//
//   * engine consistency -- a random probe/commit/uncommit workout of
//     analysis::PlacementEngine, cross-checked after every step against
//     UtilMatrix instances rebuilt from the member lists and against the
//     allocation-per-call probe_assignment reference;
//   * test dominance     -- Eq. (4) acceptance must imply Theorem 1
//     acceptance (the improved test accepts a superset), and for K == 2 the
//     improved test must coincide with the paper's Eq. (7) dual test;
//   * scheme claims      -- every partitioner's claimed success is re-judged
//     by re-running the gating analysis from scratch on each core's final
//     subset (Theorem 1 for the EDF-VD schemes, AMC-rtb for FP-AMC, the DBF
//     test for DBF-FFD), plus structural partition invariants;
//   * io round-trip      -- write_taskset/read_taskset and
//     write_partition/read_partition must be lossless (including unassigned
//     tasks);
//   * engine parity      -- the fast event-calendar simulation kernel and
//     the reference O(n)-scan loop must produce bit-identical SimResults
//     and trace streams on randomized partitions, schedulers (including
//     explicit fixed priorities with duplicate ranks), sporadic jitter,
//     degraded service and mode-reset configurations;
//   * probe parity       -- the batched struct-of-arrays all-cores probes
//     (probe_all_cores / probe_fits_all / probe_fits_basic_all) must be
//     BITWISE identical to num_cores() scalar probes — every ProbeResult
//     field under all three policies plus both accept masks — across a
//     random commit/uncommit/relocate workout, and each batched call must
//     advance probes() by exactly num_cores().
//
// Checkers return ok/detail rather than asserting so the fuzz driver can
// shrink a failing input and the corpus replayer can report it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcs/core/taskset.hpp"
#include "mcs/sim/engine.hpp"
#include "mcs/sim/trace.hpp"

namespace mcs::verify {

struct CheckResult {
  bool ok = true;
  std::string detail;  ///< empty when ok; names the disagreement otherwise
};

/// Random PlacementEngine workout vs. from-scratch recomputation.
[[nodiscard]] CheckResult check_engine_consistency(const TaskSet& ts,
                                                   std::size_t num_cores,
                                                   std::uint64_t seed);

/// basic => improved dominance on the whole set and on random subsets; for
/// K == 2 additionally improved <=> dual (Eq. 7).
[[nodiscard]] CheckResult check_test_dominance(const TaskSet& ts,
                                               std::uint64_t seed);

/// Re-judges every scheme's claimed success/failure on (ts, num_cores).
[[nodiscard]] CheckResult check_scheme_claims(const TaskSet& ts,
                                              std::size_t num_cores);

/// Task-set and partition serialization round-trips exactly.
[[nodiscard]] CheckResult check_io_roundtrip(const TaskSet& ts,
                                             std::size_t num_cores,
                                             std::uint64_t seed);

/// Runs engine consistency, dominance and scheme claims (the "differential"
/// fuzz target); returns the first failure.
[[nodiscard]] CheckResult run_differential(const TaskSet& ts,
                                           std::size_t num_cores,
                                           std::uint64_t seed);

/// Field-exact (bitwise, no tolerances) comparison of two engines' outputs
/// on the same run: every DeadlineMiss, CoreStats and TaskSimStats field
/// and every TraceEvent must agree.  `fast`/`ref` name the sides in the
/// failure detail.
[[nodiscard]] CheckResult compare_sim_runs(
    const sim::SimResult& fast, const sim::SimResult& ref,
    const std::vector<sim::TraceEvent>& fast_trace,
    const std::vector<sim::TraceEvent>& ref_trace);

/// Runs both simulation kernels over several randomized partition/config
/// rounds on (ts, num_cores) and requires bit-identical results, traces
/// included (the "engine-parity" fuzz target).
[[nodiscard]] CheckResult check_engine_parity(const TaskSet& ts,
                                              std::size_t num_cores,
                                              std::uint64_t seed);

/// Batched-vs-scalar probe differential on a random placement workout (the
/// "probe-parity" fuzz target): bitwise ProbeResult equality under every
/// policy, accept-mask equality, the one-batched-call == num_cores()-probes
/// accounting contract, and (every 4th step) the active lane backend's raw
/// kernel output bitwise equal to the scalar backend's.
[[nodiscard]] CheckResult check_probe_parity(const TaskSet& ts,
                                             std::size_t num_cores,
                                             std::uint64_t seed);

}  // namespace mcs::verify
