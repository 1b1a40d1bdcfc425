// Wire protocol of the mcs_serve daemon (line-oriented text over a local
// stream socket).
//
// Requests (client -> server):
//
//   mcs-serve/1 <id> analyze <scheme-spec> <cores> <alpha>
//   K 2
//   task 1 80 15.1 32.4
//   ...
//   end
//
//   mcs-serve/1 <id> ping
//   mcs-serve/1 <id> stats
//   mcs-serve/1 <id> shutdown
//
// The task-set body between the header and "end" is exactly the io::
// task-set serialization, so any file taskset_tool writes can be piped to
// the daemon verbatim.  <scheme-spec> is one whitespace-free token from
// the partition::make_scheme_spec grammar ("CA-TPA", "FFD/eq4",
// "CA-TPA(a=0.5,min)", ...).
//
// Responses (server -> client) are one JSON line per request, echoing the
// request id.  Analysis responses carry the 16-hex-digit request
// fingerprint, a "cached" flag, and on success the Eq. (10/11/16) metrics
// plus the partition in io:: text form; doubles are printed at round-trip
// precision so a cached response is byte-identical to the cold one it was
// cached from (the "cached" flag and the server's wall-clock "elapsed_us"
// field aside).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>

#include "mcs/svc/analysis.hpp"
#include "mcs/svc/cache.hpp"
#include "mcs/util/json.hpp"

namespace mcs::svc {

/// Malformed request text (bad header, bad task-set body, missing "end").
/// Carries the request id when the header got as far as a readable one, so
/// the error response can echo it; 0 otherwise.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what, std::uint64_t id = 0)
      : std::runtime_error(what), id_(id) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_;
};

/// An analyze request as received: header fields parsed, the task-set body
/// still text.  The canonical form (the cache key) is assembled from the
/// received tokens without re-serialization, and the body is only parsed
/// into a TaskSet on a cache miss (parse_analyze) — a hit never pays for
/// parsing.
struct WireAnalyze {
  std::string scheme_spec;
  std::size_t num_cores = 0;
  double alpha = 0.0;
  std::string body;       ///< io:: task-set text, verbatim
  std::string canonical;  ///< "scheme/cores/alpha" header + body
};

struct Request {
  enum class Kind { kAnalyze, kPing, kStats, kShutdown };
  Kind kind = Kind::kPing;
  std::uint64_t id = 0;
  std::optional<WireAnalyze> analyze;  ///< set iff kind == kAnalyze
};

/// Reads one request from `in`.  Returns nullopt on clean EOF before a
/// header line; throws ProtocolError on malformed framing (the connection
/// cannot be resynchronized afterwards and should be closed), carrying the
/// header's id once the magic and id have parsed.  The task-set body is
/// NOT validated here — parse_analyze does that lazily.
[[nodiscard]] std::optional<Request> read_request(std::istream& in);

/// Parses a wire request's body into a full AnalysisRequest.  Throws
/// ProtocolError when the body is not a valid io:: task set (the request
/// is answerable with an error response; the stream itself is fine).
[[nodiscard]] AnalysisRequest parse_analyze(const WireAnalyze& wire);

/// Client-side serializers (exact inverses of read_request).
void write_analyze_request(std::ostream& out, std::uint64_t id,
                           const AnalysisRequest& req);
void write_command(std::ostream& out, std::uint64_t id, Request::Kind kind);

/// Response builders.  Each returns a complete JSON document; the server
/// writes `dump()` plus a newline.
[[nodiscard]] util::Json analysis_response(std::uint64_t id,
                                           std::uint64_t fingerprint,
                                           bool cached,
                                           const AnalysisResult& result);
[[nodiscard]] util::Json pong_response(std::uint64_t id);
[[nodiscard]] util::Json stats_response(std::uint64_t id,
                                        const CacheStats& stats,
                                        std::uint64_t requests_served);
[[nodiscard]] util::Json error_response(std::uint64_t id,
                                        const std::string& message);

}  // namespace mcs::svc
