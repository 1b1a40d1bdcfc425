// The experiment orchestrator: runs a SweepSpec end-to-end with resumable
// per-point checkpointing and deterministic observability capture, and
// writes versioned artifacts that the docs renderer (mcs_report) consumes.
//
// Determinism: a point's aggregates depend only on (spec, point index,
// trial index, seed), and the checkpoint stores their exact bit patterns,
// so a sweep interrupted at any point and resumed produces artifacts
// byte-identical to an uninterrupted run.  Observability counter deltas are
// captured per point by the scheduler's per-chunk thread sinks; they too
// are deterministic (every counted event derives from deterministic trial
// work), so they are safe to persist.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mcs/exp/checkpoint.hpp"
#include "mcs/exp/spec.hpp"

namespace mcs::exp {

struct SpecRunOptions {
  std::uint64_t trials = kDefaultTrials;
  std::uint64_t seed = 1;
  /// Workers for the whole sweep (0 = hardware concurrency).
  std::size_t threads = 0;
  double alpha = kDefaultAlpha;
  /// Where checkpoints and artifacts live.
  std::string artifacts_dir = "artifacts";
  /// Reuse a checkpoint whose fingerprint matches; a stale or mismatching
  /// checkpoint is discarded and the sweep starts fresh.
  bool resume = true;
  /// Keep the checkpoint file after a completed run (tests; normally it is
  /// removed once artifacts are written).
  bool keep_checkpoint = false;
  /// Stop after running this many *new* points (0 = run to completion).
  /// Simulates an interrupted sweep deterministically for resume tests.
  std::size_t stop_after_points = 0;
  /// Enable the obs metrics registry for the run and record each point's
  /// counter deltas into the checkpoint/artifact.
  bool collect_metrics = true;
  /// Provenance string recorded in artifacts (e.g. the git commit).
  std::string source;
  /// Invoked after every completed point with (points done, total).
  std::function<void(std::size_t, std::size_t)> progress;
};

struct SpecRunResult {
  SweepResult result;  ///< completed points, in index order
  /// Per completed point: the deterministic counter deltas observed.
  std::vector<std::map<std::string, std::uint64_t>> point_counters;
  std::size_t resumed_points = 0;  ///< points recovered from the checkpoint
  bool complete = false;
  std::string fingerprint;
  std::string checkpoint_path;
  std::string json_path;  ///< empty unless an artifact was written
  std::string csv_path;   ///< empty unless an artifact was written
};

/// Runs `spec` per `options`: loads a matching checkpoint, runs the missing
/// points on one run_points pool (appending each to the checkpoint as it
/// completes), and on completion writes the JSON + CSV artifacts and
/// removes the checkpoint.  Throws std::runtime_error when an artifact
/// cannot be written; the checkpoint is then kept, so a rerun resumes.
[[nodiscard]] SpecRunResult run_spec(const SweepSpec& spec,
                                     const SpecRunOptions& options);

/// The checkpoint file location run_spec uses for `spec`.
[[nodiscard]] std::string checkpoint_path_for(const SpecRunOptions& options,
                                              const SweepSpec& spec);

/// A loaded "mcs-exp-artifact/1" file: provenance plus the exact per-point
/// aggregates and counter deltas.
struct Artifact {
  std::string spec;
  std::string title;
  std::string x_label;
  std::uint64_t trials = 0;
  std::uint64_t seed = 0;
  double alpha = 0.0;
  std::string source;
  std::string fingerprint;
  std::vector<PointCheckpoint> points;
};

/// Parses an artifact file; nullopt when missing or not a v1 artifact.
[[nodiscard]] std::optional<Artifact> load_artifact(const std::string& path);

}  // namespace mcs::exp
