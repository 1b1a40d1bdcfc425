#include "mcs/exp/montecarlo.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>

#include "mcs/analysis/placement.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/util/thread_pool.hpp"

namespace mcs::exp {

namespace {

constexpr obs::TraceSite kPointSite{"exp.point", "index", "chunk"};

/// Trials per work item.  A point's bits depend on these boundaries (see
/// merge_chunks), so changing it changes every artifact.
constexpr std::uint64_t kChunk = 64;

/// What one chunk of one point leaves for the merge.
struct ChunkSlot {
  std::vector<SchemeAggregate> aggregates;
  obs::MetricsCapture capture;
};

struct PointSlots {
  std::vector<ChunkSlot> chunks;
  std::atomic<std::size_t> unfinished{0};  ///< chunks still running
};

/// Runs trials [begin, end) of `work` into `local` (one aggregate per
/// scheme).  One engine + one trial arena + one metrics scratch per chunk:
/// partition, scratch matrices, utilization caches, the SoA
/// level-utilization planes, the batched-probe scratch, the task orders,
/// the schemes' buffers AND the task-set shells are all recycled across
/// every trial x scheme of the chunk (reset() / TrialArena re-assign in
/// place).  In the steady state of a sweep the paper's schemes (WFD, FFD,
/// BFD, Hybrid, CA-TPA) and the metrics run a trial without a heap
/// allocation; tests/partition/allocation_free_test holds them to it.
void run_trials(const PointWork& work, std::uint64_t begin, std::uint64_t end,
                std::vector<SchemeAggregate>& local) {
  const partition::PartitionerList& schemes = *work.schemes;
  local.resize(schemes.size());
  analysis::PlacementEngine engine;
  gen::TrialArena arena;
  analysis::MetricsScratch metrics;
  for (std::uint64_t trial = begin; trial < end; ++trial) {
    const TaskSet& ts = arena.generate_trial(*work.params, work.seed, trial);
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      SchemeAggregate& agg = local[s];
      ++agg.trials;
      engine.reset(ts, work.params->num_cores);
      const partition::PlacementOutcome outcome = schemes[s]->run_on(engine);
      agg.probes.add(static_cast<double>(engine.probes()));
      if (!outcome.success) continue;
      ++agg.schedulable;
      const analysis::PartitionMetrics& m =
          analysis::partition_metrics(engine.partition(), metrics);
      agg.u_sys.add(m.u_sys);
      agg.u_avg.add(m.u_avg);
      agg.imbalance.add(m.imbalance);
    }
  }
}

/// Folds a finished point's chunks in chunk index order.  Welford::merge is
/// not order-insensitive at the bit level, so merging in completion order
/// would make the result depend on thread scheduling; the index-order fold
/// is what makes a point a pure function of (params, schemes, trials,
/// seed) for *any* thread count, which checkpoint resume relies on.
PointCheckpoint merge_chunks(const PointWork& work,
                             const std::vector<ChunkSlot>& chunks) {
  PointCheckpoint point;
  point.index = work.index;
  point.result.x = work.x;
  std::vector<SchemeAggregate>& merged = point.result.schemes;
  merged.resize(work.schemes->size());
  for (std::size_t s = 0; s < merged.size(); ++s) {
    merged[s].scheme = (*work.schemes)[s]->name();
  }
  obs::MetricsCapture capture;
  for (const ChunkSlot& chunk : chunks) {
    for (std::size_t s = 0; s < merged.size(); ++s) {
      const SchemeAggregate& local = chunk.aggregates[s];
      merged[s].trials += local.trials;
      merged[s].schedulable += local.schedulable;
      merged[s].u_sys.merge(local.u_sys);
      merged[s].u_avg.merge(local.u_avg);
      merged[s].imbalance.merge(local.imbalance);
      merged[s].probes.merge(local.probes);
    }
    capture += chunk.capture;
  }
  point.counters = obs::registry().resolve(capture);
  return point;
}

}  // namespace

void run_points(std::span<const PointWork> points, std::uint64_t trials,
                std::size_t threads, bool capture_metrics,
                const std::function<void(PointCheckpoint)>& on_point) {
  // A point without trials still gets one (empty) chunk, so it completes
  // like any other.  (Rounding up by division and remainder: adding
  // kChunk - 1 first would wrap for trials near the uint64 limit.)
  const auto chunks = static_cast<std::size_t>(std::max<std::uint64_t>(
      1, trials / kChunk + (trials % kChunk != 0 ? 1 : 0)));
  std::vector<PointSlots> slots(points.size());
  for (PointSlots& point : slots) {
    point.chunks.resize(chunks);
    point.unfinished = chunks;
  }
  std::mutex on_point_mutex;

  util::parallel_for(
      points.size() * chunks,
      [&](std::size_t item) {
        const std::size_t p = item / chunks;
        const std::size_t chunk = item % chunks;
        const PointWork& work = points[p];
        ChunkSlot& slot = slots[p].chunks[chunk];
        {
          const obs::ScopedSpan span(kPointSite, work.index, chunk);
          std::optional<obs::ThreadMetricsSink> sink;
          if (capture_metrics) sink.emplace(slot.capture);
          const std::uint64_t begin = chunk * kChunk;
          run_trials(work, begin, std::min(begin + kChunk, trials),
                     slot.aggregates);
        }
        // The atomic countdown also publishes every other chunk's slot to
        // the worker that finishes the point's last chunk.
        if (--slots[p].unfinished != 0) return;
        PointCheckpoint point = merge_chunks(work, slots[p].chunks);
        slots[p].chunks = {};
        // Held across the call: on_point must be serialized (run_spec's
        // appends one checkpoint record per point to one file).
        const std::lock_guard lock(on_point_mutex);
        on_point(std::move(point));
      },
      threads);
}

PointResult run_point(const gen::GenParams& params,
                      const partition::PartitionerList& schemes,
                      const RunOptions& options, double x_value) {
  const PointWork work{.index = 0,
                       .x = x_value,
                       .params = &params,
                       .schemes = &schemes,
                       .seed = options.seed};
  PointResult result;
  run_points({&work, 1}, options.trials, options.threads, false,
             [&](PointCheckpoint point) { result = std::move(point.result); });
  return result;
}

}  // namespace mcs::exp
