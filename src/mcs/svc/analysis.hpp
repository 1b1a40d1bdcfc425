// The cacheable unit of service work: one (task set, scheme, cores, alpha)
// partition-and-analyze request.
//
// A request is canonicalized to a deterministic text form (the io::
// task-set serialization, which prints doubles at round-trip precision,
// prefixed by the scheme/cores/alpha header).  The daemon's analysis cache
// is keyed on that text (svc/cache.hpp), and each response carries its
// FNV-1a fingerprint.  Keying on text (rather than parsed values) is what
// lets the daemon serve a cache hit without parsing the task set at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "mcs/core/taskset.hpp"

namespace mcs::analysis {
class PlacementEngine;
}  // namespace mcs::analysis

namespace mcs::svc {

/// One partition/analysis request.
struct AnalysisRequest {
  std::string scheme_spec;   ///< partition::make_scheme_spec grammar
  std::size_t num_cores = 0;
  double alpha = 0.7;        ///< CA-TPA imbalance threshold
  TaskSet taskset;
};

/// Deterministic text form of a request: a "scheme/cores/alpha" header
/// followed by the io:: task-set serialization (round-trip precision, so
/// re-serializing a parsed request reproduces the text byte-for-byte).
/// Two requests are the same work if their canonical texts are byte-equal.
[[nodiscard]] std::string canonical_request_text(const AnalysisRequest& req);

/// FNV-1a over a canonical text: the "fingerprint" of an analyze response.
/// The daemon computes it once per cache entry, on the miss that fills it.
[[nodiscard]] std::uint64_t canonical_fingerprint(std::string_view canonical);

/// canonical_fingerprint of canonical_request_text: the fingerprint of an
/// in-process (already parsed) request.  Matches what the daemon computes
/// for the same request arriving over the wire through
/// protocol.hpp's writer.
[[nodiscard]] std::uint64_t request_fingerprint(const AnalysisRequest& req);

/// Structural FNV-1a fingerprint of a task set from exact IEEE-754 bit
/// patterns (never decimal formatting) — formatting-independent, unlike
/// the text-keyed response fingerprints; used to identify workloads across
/// tools.
[[nodiscard]] std::uint64_t taskset_fingerprint(const TaskSet& ts);

/// The analysis outcome the daemon returns (and caches).  The partition is
/// carried in io:: partition text form so responses serialize without
/// re-walking core data structures.
struct AnalysisResult {
  bool success = false;
  std::optional<std::size_t> failed_task;  ///< first unplaceable task index
  std::size_t probes = 0;                  ///< feasibility probes performed
  double u_sys = 0.0;                      ///< Eq. (10), successful runs only
  double u_avg = 0.0;                      ///< Eq. (11)
  double imbalance = 0.0;                  ///< Lambda, Eq. (16)
  std::string partition_text;              ///< io::write_partition form
};

/// The most cores a request may name.  A core costs memory in the placement
/// engine (46 MB for 100,000 cores with one task), so a request's core
/// count is bounded like its size; this is 64x the largest M the sweeps
/// and tests use.
inline constexpr std::size_t kMaxCores = 4096;

/// Runs the request on `engine` (reset to the request's task set / core
/// count): builds the scheme via partition::make_scheme_spec, partitions,
/// and computes the Eq. (10/11/16) metrics on success.  Deterministic: the
/// same request always yields the same result, which is what makes caching
/// by canonical text sound.  Throws std::invalid_argument for an unknown
/// scheme spec or a core count outside [1, kMaxCores].
[[nodiscard]] AnalysisResult analyze(const AnalysisRequest& req,
                                     analysis::PlacementEngine& engine);

}  // namespace mcs::svc
