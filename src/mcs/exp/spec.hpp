// Declarative experiment specifications.
//
// A SweepSpec describes a figure- or ablation-level experiment as *data*:
// one swept axis with its values, the non-swept generator parameters, and
// the scheme line-up as registry spec strings (partition::make_scheme_spec
// grammar).  Every consumer — the mcs_exp orchestrator, examples/sweep_cli,
// the E2/E3 benches — runs a SweepSpec, and the named ones resolve from
// the same builtin registry, so "fig1" means exactly one thing everywhere
// and the docs pipeline can reference experiments by name.
//
// The seeding contract: trial results are a pure function of
// (spec, point index, trial index, base seed).  Points draw workloads from
// derive_seed(seed, point) unless the spec shares workloads across points
// (common random numbers; fig3), in which case every point uses the base
// seed directly.  This holds for any thread count, which is what makes
// checkpoint resume bit-identical.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "mcs/exp/montecarlo.hpp"

namespace mcs::exp {

/// The parameter a spec sweeps.
enum class Axis {
  kNsu,     ///< normalized system utilization
  kIfc,     ///< WCET increment factor
  kAlpha,   ///< CA-TPA imbalance threshold (schemes rebuilt per point)
  kCores,   ///< M
  kLevels,  ///< K
};

[[nodiscard]] const char* axis_name(Axis axis) noexcept;

struct SweepSpec {
  std::string name;     ///< registry key, e.g. "fig1", "a3"
  std::string title;    ///< display title, e.g. "Figure 1 - varying NSU"
  std::string x_label;  ///< e.g. "NSU"
  Axis axis = Axis::kNsu;
  std::vector<double> values;  ///< axis values (cores/levels as doubles)
  gen::GenParams base;         ///< the non-swept parameters
  /// Scheme line-up as make_scheme_spec strings; empty selects the paper's
  /// five-scheme line-up at the run-time alpha.
  std::vector<std::string> schemes;
  /// Common random numbers across points (fig3: only alpha varies).
  bool share_workloads_across_points = false;
};

/// The builtin specs: the paper's five figures ("fig1".."fig5"), the
/// CA-TPA ablations ("a1".."a4"), and the competitor head-to-heads
/// ("h1".."h2").
[[nodiscard]] const std::vector<SweepSpec>& builtin_specs();

/// Looks up a builtin spec by name (case-insensitive); nullptr if unknown.
[[nodiscard]] const SweepSpec* find_spec(const std::string& name);

/// Comma-separated builtin spec names (for CLI help/errors).
[[nodiscard]] std::string spec_names();

/// Point `index` of a spec, materialized for run_points.
struct SpecPoint {
  std::size_t index = 0;
  double x = 0.0;
  gen::GenParams params;
  partition::PartitionerList schemes;
  std::uint64_t seed = 1;  ///< trial t draws its task set from (seed, t)

  /// The run_points item for this point; it points into *this.
  [[nodiscard]] PointWork work() const {
    return {.index = index,
            .x = x,
            .params = &params,
            .schemes = &schemes,
            .seed = seed};
  }
};

/// Materializes point `index` of `spec`.  `alpha` parameterizes schemes
/// that do not pin their own alpha; on the kAlpha axis the point's x value
/// overrides it (the paper's Fig. 3).  The point draws its workloads from
/// derive_seed(seed, index), or from `seed` itself when the spec shares
/// workloads across points.
[[nodiscard]] SpecPoint spec_point(const SweepSpec& spec, std::size_t index,
                                   double alpha, std::uint64_t seed);

/// A completed sweep, ready for the report.hpp renderers.
struct SweepResult {
  std::string name;     ///< e.g. "fig1"
  std::string x_label;  ///< e.g. "NSU"
  std::vector<PointResult> points;  ///< in point index order
};

/// Runs every point of `spec` on one run_points pool of options.threads
/// workers, without checkpoints or artifacts (run_spec adds those).
/// `progress`, when set, is invoked after each completed point with
/// (points done, total).
[[nodiscard]] SweepResult run_sweep(
    const SweepSpec& spec, const RunOptions& options, double alpha,
    const std::function<void(std::size_t, std::size_t)>& progress = {});

/// Stable 64-bit fingerprint (as 16 hex digits) of everything that
/// determines a run's numbers: the spec (axis, values, base generator
/// parameters, schemes, sharing) plus trials, seed and alpha.  Checkpoints
/// record it so a resume against a different configuration is detected.
[[nodiscard]] std::string spec_fingerprint(const SweepSpec& spec,
                                           std::uint64_t trials,
                                           std::uint64_t seed, double alpha);

}  // namespace mcs::exp
