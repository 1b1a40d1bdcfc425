// Parameter sweeps: the figure-level experiment driver.
//
// A Sweep is a named list of points; each point carries its x value, a
// generator configuration, and the scheme line-up to evaluate (rebuilt per
// point so that scheme parameters like CA-TPA's alpha can vary with x, as in
// Fig. 3).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "mcs/exp/montecarlo.hpp"

namespace mcs::exp {

struct SweepPoint {
  double x = 0.0;
  gen::GenParams params;
  /// Builds the schemes for this point; defaults to the paper line-up with
  /// the default alpha when empty.
  std::function<partition::PartitionerList()> make_schemes;
};

struct Sweep {
  std::string name;     ///< e.g. "fig1"
  std::string x_label;  ///< e.g. "NSU"
  std::vector<SweepPoint> points;
  /// When set, every point draws the *same* workloads (common random
  /// numbers).  Used by Fig. 3, where only CA-TPA's alpha varies with x, so
  /// the baselines stay exactly constant across the sweep as in the paper.
  bool share_workloads_across_points = false;
};

struct SweepResult {
  Sweep sweep;  ///< the configuration that produced it (points retained)
  std::vector<PointResult> points;
};

/// Runs every point of the sweep on one run_points pool of
/// options.threads workers.  `progress`, when non-null, is invoked after
/// each completed point with (points done, total).
[[nodiscard]] SweepResult run_sweep(
    const Sweep& sweep, const RunOptions& options,
    const std::function<void(std::size_t, std::size_t)>& progress = {});

/// Runs points `indices` of `sweep` through run_points.  Each point gets
/// its schemes from make_schemes (the paper line-up with the default alpha
/// when empty) and the seed derive_seed(options.seed, index), or
/// options.seed itself when the sweep shares workloads across points.
void run_sweep_points(const Sweep& sweep, std::span<const std::size_t> indices,
                      const RunOptions& options, bool capture_metrics,
                      const std::function<void(PointCheckpoint)>& on_point);

/// Builders for the paper's five figures.  `base` supplies the non-swept
/// parameters; alpha parameterizes CA-TPA except in fig3 where it is the
/// x axis.
[[nodiscard]] Sweep make_fig1_nsu(const gen::GenParams& base, double alpha);
[[nodiscard]] Sweep make_fig2_ifc(const gen::GenParams& base, double alpha);
[[nodiscard]] Sweep make_fig3_alpha(const gen::GenParams& base);
[[nodiscard]] Sweep make_fig4_cores(const gen::GenParams& base, double alpha);
[[nodiscard]] Sweep make_fig5_levels(const gen::GenParams& base, double alpha);

}  // namespace mcs::exp
