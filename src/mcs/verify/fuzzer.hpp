// Seeded generate -> check -> shrink fuzz loop.
//
// Each trial derives its generator parameters and seeds deterministically
// from (base seed, trial index), so any finding is reproducible from the
// two numbers alone — the parallel schedule never affects what a trial
// does, only when it runs (the same discipline as exp/montecarlo).  Trials
// run in parallel on util::parallel_for in batches until the wall-clock
// budget (or the trial cap) is exhausted; failing trials are shrunk with
// verify::shrink and, when a corpus directory is configured, serialized as
// replayable corpus files.
//
// Targets:
//   * soundness     -- partition with a randomly drawn scheme; accepted
//                      partitions must survive the SoundnessOracle;
//   * differential  -- the incremental-vs-scratch checkers (differential.hpp);
//   * io            -- serialization round-trips;
//   * engine-parity -- the fast and reference simulation kernels must be
//                      bit-identical (check_engine_parity);
//   * probe-parity  -- the batched all-cores placement probes must be
//                      bit-identical to scalar probes (check_probe_parity).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcs/verify/shrink.hpp"

namespace mcs::verify {

enum class FuzzTarget {
  kSoundness,
  kDifferential,
  kIo,
  kEngineParity,
  kProbeParity
};

/// Parses "soundness" | "differential" | "io" | "engine-parity" |
/// "probe-parity"; throws std::invalid_argument otherwise.
[[nodiscard]] FuzzTarget parse_target(const std::string& name);
[[nodiscard]] std::string target_name(FuzzTarget target);

struct FuzzOptions {
  FuzzTarget target = FuzzTarget::kSoundness;
  /// Wall-clock budget; the loop stops starting new batches once exceeded.
  double budget_s = 30.0;
  std::uint64_t seed = 1;
  /// Hard trial cap; 0 means budget-only.  With a cap and enough budget the
  /// run is fully deterministic (exactly trials 0..max_trials-1 execute).
  std::uint64_t max_trials = 0;
  /// Worker threads for util::parallel_for (0 = hardware default).
  std::size_t threads = 0;
  /// Stop after this many findings (each one is shrunk, which is the
  /// expensive part).
  std::size_t max_findings = 4;
  /// When non-empty, shrunk findings are saved here as corpus files named
  /// <target>_seed<seed>_trial<trial>.mcs.
  std::string corpus_dir;
  ShrinkOptions shrink;
};

/// One shrunk, reproducible failure.
struct Finding {
  std::uint64_t trial = 0;        ///< failing trial index under the base seed
  std::string detail;             ///< what went wrong (oracle/checker text)
  std::string scheme;             ///< accepting scheme (soundness only)
  FuzzCase shrunk;                ///< minimized reproducer
  std::size_t original_tasks = 0;
  std::size_t shrink_steps = 0;
  std::size_t shrink_attempts = 0;
  std::string corpus_path;        ///< where the reproducer was saved ("" if not)
  /// Flight-recorder dump (trace of the failing trial re-run with spans on);
  /// written next to the corpus file, "" when no corpus dir is configured.
  std::string flight_path;
  /// False when the case passed its re-check before shrinking (a race or a
  /// timing-dependent check): the finding is kept as found, unshrunk.
  bool failed_again = true;
};

struct FuzzReport {
  FuzzTarget target = FuzzTarget::kSoundness;
  std::uint64_t seed = 0;
  std::uint64_t trials = 0;
  double elapsed_s = 0.0;
  std::vector<Finding> findings;

  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
  [[nodiscard]] double trials_per_sec() const noexcept {
    return elapsed_s > 0.0 ? static_cast<double>(trials) / elapsed_s : 0.0;
  }
};

/// Runs the fuzz loop.  Never throws on findings (they are data); throws
/// std::invalid_argument on nonsensical options.
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& options);

/// Re-executes a single trial (the reproduction path printed with every
/// finding); returns the failure detail or empty when the trial is clean.
[[nodiscard]] std::string run_trial(FuzzTarget target, std::uint64_t seed,
                                    std::uint64_t trial);

/// Renders the stats table (trials, trials/sec, findings, shrink steps) plus
/// one line per finding with its reproduction command.
[[nodiscard]] std::string describe(const FuzzReport& report);

namespace detail {

/// A finding's shrink step.  `original` is re-checked first and shrunk only
/// when `still_fails` holds on it again: a case that passes its re-check (a
/// race, a timing-dependent check) comes back as found, with failed_again
/// false, since shrink() needs a predicate that holds on the original.
struct Rechecked {
  ShrinkResult shrunk;
  bool failed_again = true;
};
[[nodiscard]] Rechecked recheck_then_shrink(FuzzCase original,
                                            const FailurePredicate& still_fails,
                                            const ShrinkOptions& options);

}  // namespace detail

}  // namespace mcs::verify
