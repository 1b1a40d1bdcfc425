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
#pragma once

#include <algorithm>
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

/// One core's selection key and payload in the shared core scan (defined
/// next to the engine that keeps the scan's buffers).
using analysis::Candidate;

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
/// nullopt when every task was placed.  The per-core vectors are the
/// engine's buffers, cleared on entry.
template <typename FillFn, typename PlaceFn>
std::optional<std::size_t> place_in_order_batched(
    analysis::PlacementEngine& engine, std::span<const std::size_t> order,
    SelectionRule rule, FillFn&& fill, PlaceFn&& place) {
  const std::span<Candidate> candidates(engine.buffers().candidates);
  const std::span<unsigned char> feasible(engine.buffers().feasible);
  std::fill(candidates.begin(), candidates.end(), Candidate{});
  std::fill(feasible.begin(), feasible.end(),
            static_cast<unsigned char>(0));
  for (const std::size_t t : order) {
    fill(t, candidates, feasible);
    const CoreChoice choice =
        reduce_core_choice(candidates, feasible, rule, 0.0);
    if (choice.core == kUnassigned) return t;
    place(t, choice);
  }
  return std::nullopt;
}

}  // namespace mcs::partition
