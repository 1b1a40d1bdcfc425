#include "mcs/exp/sweep.hpp"

#include <numeric>

namespace mcs::exp {

void run_sweep_points(const Sweep& sweep, std::span<const std::size_t> indices,
                      const RunOptions& options, bool capture_metrics,
                      const std::function<void(PointCheckpoint)>& on_point) {
  std::vector<partition::PartitionerList> lineups;
  lineups.reserve(indices.size());  // PointWork points into it
  std::vector<PointWork> work;
  work.reserve(indices.size());
  for (const std::size_t i : indices) {
    const SweepPoint& pt = sweep.points[i];
    lineups.push_back(pt.make_schemes
                          ? pt.make_schemes()
                          : partition::paper_schemes(kDefaultAlpha));
    work.push_back(PointWork{.index = i,
                             .x = pt.x,
                             .params = &pt.params,
                             .schemes = &lineups.back(),
                             .seed = sweep.share_workloads_across_points
                                         ? options.seed
                                         : gen::derive_seed(options.seed, i)});
  }
  run_points(work, options.trials, options.threads, capture_metrics,
             on_point);
}

SweepResult run_sweep(
    const Sweep& sweep, const RunOptions& options,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  const std::size_t total = sweep.points.size();
  std::vector<std::size_t> indices(total);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  SweepResult result;
  result.sweep = sweep;
  result.points.resize(total);
  std::size_t completed = 0;
  run_sweep_points(sweep, indices, options, false, [&](PointCheckpoint point) {
    result.points[point.index] = std::move(point.result);
    ++completed;
    if (progress) progress(completed, total);
  });
  return result;
}

namespace {

SweepPoint make_point(double x, gen::GenParams params, double alpha) {
  return SweepPoint{
      .x = x,
      .params = params,
      .make_schemes = [alpha] { return partition::paper_schemes(alpha); }};
}

}  // namespace

Sweep make_fig1_nsu(const gen::GenParams& base, double alpha) {
  Sweep s{.name = "fig1", .x_label = "NSU", .points = {}};
  for (double nsu : kNsuRange) {
    gen::GenParams p = base;
    p.nsu = nsu;
    s.points.push_back(make_point(nsu, p, alpha));
  }
  return s;
}

Sweep make_fig2_ifc(const gen::GenParams& base, double alpha) {
  Sweep s{.name = "fig2", .x_label = "IFC", .points = {}};
  for (double ifc : kIfcRange) {
    gen::GenParams p = base;
    p.ifc = ifc;
    s.points.push_back(make_point(ifc, p, alpha));
  }
  return s;
}

Sweep make_fig3_alpha(const gen::GenParams& base) {
  Sweep s{.name = "fig3", .x_label = "alpha", .points = {}};
  s.share_workloads_across_points = true;  // only alpha varies with x
  for (double alpha : kAlphaRange) {
    s.points.push_back(make_point(alpha, base, alpha));
  }
  return s;
}

Sweep make_fig4_cores(const gen::GenParams& base, double alpha) {
  Sweep s{.name = "fig4", .x_label = "M", .points = {}};
  for (std::size_t m : kCoreRange) {
    gen::GenParams p = base;
    p.num_cores = m;
    s.points.push_back(make_point(static_cast<double>(m), p, alpha));
  }
  return s;
}

Sweep make_fig5_levels(const gen::GenParams& base, double alpha) {
  Sweep s{.name = "fig5", .x_label = "K", .points = {}};
  for (Level k : kLevelRange) {
    gen::GenParams p = base;
    p.num_levels = k;
    s.points.push_back(make_point(static_cast<double>(k), p, alpha));
  }
  return s;
}

}  // namespace mcs::exp
