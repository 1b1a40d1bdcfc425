// Partitioner interface and shared machinery.
//
// A Partitioner maps a TaskSet onto M cores such that every core passes the
// EDF-VD schedulability test (Eq. 4 fast path, Theorem 1 full test).  All
// schemes in the paper fit a two-step template: (a) order the tasks, (b) pick
// a target core per task.  Step (b) is factored into one shared skeleton:
// the task loop issues ONE batched all-cores probe per task (filling a
// per-core Candidate vector and a feasibility mask) and reduces the result
// vector to a core choice — place_in_order_batched()/reduce_core_choice()
// below — parameterized by a fill functor (which feasibility test gates a
// placement and what selection key it yields) and a selection rule (first
// feasible vs. minimum key); all probing state lives in an
// analysis::PlacementEngine.
//
// Schemes whose gate has a plane-backed 2-D form ride the lazy-lookahead
// variant place_in_order_batched_2d(), which makes the same decisions
// (golden parity + probe-parity fuzz target).
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mcs/analysis/placement.hpp"
#include "mcs/core/contributions.hpp"
#include "mcs/core/partition.hpp"

namespace mcs::partition {

/// Outcome of one partitioning attempt.
struct PartitionResult {
  /// The (complete, feasible) partition on success; a partial partition up
  /// to the first unplaceable task on failure.
  Partition partition;
  bool success = false;
  /// Index of the first task that could not be placed (only on failure).
  std::optional<std::size_t> failed_task;
  /// Number of feasibility probes performed (for complexity studies).
  std::size_t probes = 0;
};

/// Outcome of running a scheme against an externally-owned PlacementEngine
/// (the partition and probe count stay inside the engine; harnesses that
/// recycle engines read them from there).
struct PlacementOutcome {
  bool success = false;
  std::optional<std::size_t> failed_task;
};

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Attempts to partition `ts` over `num_cores` cores.  Convenience
  /// wrapper: binds a fresh engine, delegates to run_on, and moves the
  /// partition into the result.
  [[nodiscard]] PartitionResult run(const TaskSet& ts,
                                    std::size_t num_cores) const;

  /// Runs the scheme on an engine already bound (via reset) to the task set
  /// and core count.  Hot path for harnesses that reuse engine state across
  /// trials.
  [[nodiscard]] virtual PlacementOutcome run_on(
      analysis::PlacementEngine& engine) const = 0;

  /// Short display name ("CA-TPA", "FFD", ...).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// A feasible placement option for one (task, core) pair as seen by the
/// shared core-scan: its selection key (lower wins) plus one scheme-specific
/// datum carried through to the commit step (CA-TPA stores the probed core
/// utilization so the cache can be updated without re-probing).
struct Candidate {
  double key = 0.0;
  double payload = 0.0;
};

/// The winning core of one scan (kUnassigned when no core was feasible).
struct CoreChoice {
  std::size_t core = kUnassigned;
  double key = std::numeric_limits<double>::infinity();
  double payload = 0.0;
};

enum class SelectionRule {
  kFirstFeasible,  ///< lowest-index feasible core, scan stops there
  kMinKey,         ///< feasible core with the smallest key; ties (within
                   ///< `tie_eps`) go to the smaller core index
};

/// Reduces a batched probe's result vector to a core choice: core m is
/// usable when feasible[m] != 0, its key/payload sit in candidates[m].
/// First feasible stops at the lowest usable index; min-key scans
/// ascending and replaces the incumbent only when key < best.key - tie_eps,
/// so ties go to the smaller core index.
[[nodiscard]] CoreChoice reduce_core_choice(
    std::span<const Candidate> candidates,
    std::span<const unsigned char> feasible, SelectionRule rule,
    double tie_eps);

/// The batched order-then-place loop: for each task of `order`,
/// `fill(task, candidates, feasible)` performs ONE batched all-cores probe
/// (writing per-core keys/payloads and the feasibility mask), the result
/// vector is reduced via reduce_core_choice, and the winner is committed
/// with `place(task, choice)`.  Returns the first unplaceable task, or
/// nullopt when every task was placed.
template <typename FillFn, typename PlaceFn>
std::optional<std::size_t> place_in_order_batched(
    std::span<const std::size_t> order, std::size_t num_cores,
    SelectionRule rule, FillFn&& fill, PlaceFn&& place) {
  std::vector<Candidate> candidates(num_cores);
  std::vector<unsigned char> feasible(num_cores, 0);
  for (const std::size_t t : order) {
    fill(t, std::span<Candidate>(candidates),
         std::span<unsigned char>(feasible));
    const CoreChoice choice =
        reduce_core_choice(candidates, feasible, rule, 0.0);
    if (choice.core == kUnassigned) return t;
    place(t, choice);
  }
  return std::nullopt;
}

/// The 2-D (task x core) lookahead variant of place_in_order_batched: gates
/// a tile of upcoming tasks against every core in ONE 2-D batched probe,
/// then places the tile's tasks in order, patching staleness lazily.
///
/// A tile row is computed against the state at tile entry; a commit inside
/// the tile only changes the committed core's column.  Because every gate
/// this skeleton accepts is per-core pure (feasibility of (t, m) depends
/// only on core m's members and task t), a column that has not been
/// committed to since the tile gate is still exact, and a "dirty" column is
/// re-gated per task on demand via `regate` (which performs — and counts —
/// one fresh single-core probe):
///
///   * a dirty column is UNKNOWN (its stale bit is ignored: commits can
///     flip feasibility either way under Theorem 1, so no monotonicity is
///     assumed);
///   * the reduce treats unknowns as potential winners and resolves one
///     whenever it would win, re-reducing after each resolution — at most
///     num_cores() resolutions per task;
///   * kMinKey is a pure smallest-index argmin (reduce_core_choice with
///     tie_eps == 0), which is insensitive to unknown losers, so the lazy
///     schedule reproduces reduce_core_choice over fully-fresh rows
///     decision-for-decision.  (A tie_eps > 0 would make the reference
///     scan order-dependent; schemes that need one, like CA-TPA, call
///     reduce_core_choice themselves.)
///
/// `keys(t, candidates)` must fill fresh selection keys (they are
/// maintained by the caller, outside the probes, so they are never stale);
/// `gate_tile(tasks, rows)` writes the task-major tile feasibility mask
/// (tasks.size() rows of num_cores bytes) with one 2-D engine probe.
/// Probe accounting: the tile gate charges tasks x cores up front (see
/// PlacementEngine::probe_fits_all_2d) and each resolution charges one
/// probe, so probe counts differ from the 1-D skeleton's; partitions do
/// not.
template <typename GateTileFn, typename RegateFn, typename KeysFn,
          typename PlaceFn>
std::optional<std::size_t> place_in_order_batched_2d(
    std::span<const std::size_t> order, std::size_t num_cores,
    SelectionRule rule, GateTileFn&& gate_tile, RegateFn&& regate,
    KeysFn&& keys, PlaceFn&& place) {
  constexpr std::size_t kTile = analysis::kBatchProbeTileTasks;
  std::vector<Candidate> candidates(num_cores);
  std::vector<unsigned char> rows(kTile * num_cores, 0);
  std::vector<unsigned char> dirty(num_cores, 0);
  // Per-task column state: 0 = infeasible, 1 = feasible (both fresh),
  // 2 = unknown (dirty since the tile gate, not yet re-gated for this task).
  std::vector<unsigned char> status(num_cores, 0);

  for (std::size_t t0 = 0; t0 < order.size(); t0 += kTile) {
    const std::size_t tile = std::min(kTile, order.size() - t0);
    gate_tile(order.subspan(t0, tile),
              std::span<unsigned char>(rows.data(), tile * num_cores));
    std::fill(dirty.begin(), dirty.end(), 0);
    for (std::size_t i = 0; i < tile; ++i) {
      const std::size_t t = order[t0 + i];
      const unsigned char* row = rows.data() + i * num_cores;
      keys(t, std::span<Candidate>(candidates));
      for (std::size_t m = 0; m < num_cores; ++m) {
        status[m] = dirty[m] ? 2 : (row[m] != 0 ? 1 : 0);
      }
      CoreChoice choice;
      if (rule == SelectionRule::kFirstFeasible) {
        // Resolve unknowns in index order: the first fresh-feasible column
        // with no unresolved smaller index is exactly the reference winner.
        for (std::size_t m = 0; m < num_cores; ++m) {
          if (status[m] == 2) status[m] = regate(t, m) ? 1 : 0;
          if (status[m] == 1) {
            choice = CoreChoice{m, candidates[m].key, candidates[m].payload};
            break;
          }
        }
      } else {
        // Smallest-index argmin over fresh-feasible + unknown columns;
        // accept a fresh winner, resolve an unknown one and re-reduce.
        for (;;) {
          std::size_t win = kUnassigned;
          double win_key = std::numeric_limits<double>::infinity();
          for (std::size_t m = 0; m < num_cores; ++m) {
            if (status[m] == 0) continue;
            if (candidates[m].key < win_key) {
              win = m;
              win_key = candidates[m].key;
            }
          }
          if (win == kUnassigned) break;
          if (status[win] == 1) {
            choice = CoreChoice{win, candidates[win].key,
                                candidates[win].payload};
            break;
          }
          status[win] = regate(t, win) ? 1 : 0;
        }
      }
      if (choice.core == kUnassigned) return t;
      place(t, choice);
      dirty[choice.core] = 1;
    }
  }
  return std::nullopt;
}

}  // namespace mcs::partition
