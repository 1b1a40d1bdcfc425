// Monte-Carlo evaluation of partitioning schemes (paper Sec. IV).
//
// For one experiment point (a GenParams configuration), `run_point` draws
// `trials` independent task sets and runs every scheme on each, aggregating:
//   * schedulability ratio  -- fraction of sets the scheme partitioned,
//   * U_sys, U_avg, Lambda  -- averaged over the sets the scheme scheduled
//                              (matching the paper: quality metrics consider
//                              only schedulable task sets).
// `run_points` is the one scheduler behind run_point, run_sweep and
// run_spec: every trial of every point runs on one worker pool as (point,
// 64-trial chunk) work items.  Every trial re-derives its RNG stream from
// (seed, trial) and per-chunk partial aggregates are merged in chunk index
// order, so results are *bit-identical* for any thread count (pinned by
// MonteCarloTest.DeterministicAcrossThreadCounts).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "mcs/analysis/metrics.hpp"
#include "mcs/exp/paper_params.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/partition/registry.hpp"
#include "mcs/util/stats.hpp"

namespace mcs::exp {

/// Aggregated outcome of one scheme at one experiment point.
struct SchemeAggregate {
  std::string scheme;
  std::uint64_t trials = 0;
  std::uint64_t schedulable = 0;
  util::Welford u_sys;
  util::Welford u_avg;
  util::Welford imbalance;
  util::Welford probes;

  [[nodiscard]] double ratio() const noexcept {
    return trials == 0
               ? 0.0
               : static_cast<double>(schedulable) / static_cast<double>(trials);
  }
};

/// One experiment point: an x-axis value plus per-scheme aggregates.
struct PointResult {
  double x = 0.0;
  std::vector<SchemeAggregate> schemes;
};

/// One completed experiment point: its aggregates plus the deterministic
/// observability counter deltas recorded while it ran.
struct PointCheckpoint {
  std::size_t index = 0;
  PointResult result;
  std::map<std::string, std::uint64_t> counters;
};

struct RunOptions {
  std::uint64_t trials = kDefaultTrials;
  std::uint64_t seed = 1;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
};

/// Evaluates `schemes` on `trials` task sets drawn from `params`.
[[nodiscard]] PointResult run_point(const gen::GenParams& params,
                                    const partition::PartitionerList& schemes,
                                    const RunOptions& options, double x_value);

/// One point of a run_points call; the caller owns what it points at.
struct PointWork {
  std::size_t index = 0;  ///< labels the point's PointCheckpoint
  double x = 0.0;
  const gen::GenParams* params = nullptr;
  const partition::PartitionerList* schemes = nullptr;
  std::uint64_t seed = 1;  ///< trial t draws its task set from (seed, t)
};

/// Runs `trials` trials of every point as one parallel loop over (point,
/// chunk) work items on `threads` workers (0 = hardware concurrency; any
/// other count is honoured).  Work items are handed out point-major, so
/// points finish roughly in order.  The worker that finishes a point's last
/// chunk merges the point's chunks in chunk index order and calls
/// `on_point` with it; calls are serialized under one lock.  With
/// `capture_metrics`, each chunk runs under its own obs::ThreadMetricsSink
/// and the point's counters are what its trials recorded (nothing is
/// recorded unless the registry is enabled).  Each work item runs under an
/// `exp.point` span with args (index, chunk).  The first exception thrown
/// by a trial or by `on_point` is rethrown once the loop drains.
void run_points(std::span<const PointWork> points, std::uint64_t trials,
                std::size_t threads, bool capture_metrics,
                const std::function<void(PointCheckpoint)>& on_point);

}  // namespace mcs::exp
