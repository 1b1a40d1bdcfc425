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
//
// Framing is one buffer-based pass (RequestFramer): line ends are found
// with memchr, a request is yielded only once its last line is complete,
// and no request may exceed kMaxRequestBytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mcs/svc/analysis.hpp"
#include "mcs/svc/cache.hpp"
#include "mcs/util/json.hpp"

namespace mcs::svc {

/// The largest request the daemon frames: bytes from a header's first byte
/// through the newline of its "end" line.  It also bounds a line's length
/// and a body's task count.  An over-limit request is a framing error.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;

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
  std::string canonical;      ///< "scheme/cores/alpha" header + body
  std::size_t body_begin = 0;  ///< where the body starts in `canonical`

  /// The io:: task-set text, verbatim.
  [[nodiscard]] std::string_view body() const {
    return std::string_view(canonical).substr(body_begin);
  }
};

struct Request {
  enum class Kind { kAnalyze, kPing, kStats, kShutdown };
  Kind kind = Kind::kPing;
  std::uint64_t id = 0;
  std::optional<WireAnalyze> analyze;  ///< set iff kind == kAnalyze
};

/// Frames requests out of a byte stream that arrives in pieces of any
/// size.  Bytes are read into one buffer; line ends are found with memchr,
/// each line is examined once however the stream is cut, and an analyze
/// body is copied once, into the request's canonical text.  Requests
/// already buffered (pipelined) are framed before the stream is read
/// again.  The buffer starts at 64 KiB and never grows past
/// kMaxRequestBytes.  One framer per stream; not thread-safe.
class RequestFramer {
 public:
  /// Frames the next request.  When the buffered bytes hold no complete
  /// one, calls `read(std::span<char> space)`, which stores up to
  /// space.size() bytes at space.data() and returns how many (<= 0 at the
  /// end of the stream).  A line ends at its newline, or at the end of the
  /// stream.  Returns nullopt at a clean end of stream (nothing but blank
  /// lines after the last request).  Throws ProtocolError on malformed
  /// framing, a request past kMaxRequestBytes or a stream that ends inside
  /// a request — the stream cannot be resynchronized afterwards — carrying
  /// the header's id once the magic and id have parsed.  The task-set body
  /// is NOT validated here — parse_analyze does that lazily.
  template <class Read>
  [[nodiscard]] std::optional<Request> next(Read&& read) {
    for (;;) {
      if (std::optional<Request> request = frame()) return request;
      if (ended_) {
        expect_clean_end();
        return std::nullopt;
      }
      const std::span<char> space = reserve();
      const auto n = read(space);
      if (n > 0) {
        end_ += static_cast<std::size_t>(n);
      } else {
        end_stream();
      }
    }
  }

 private:
  /// The next request among the buffered bytes, or nullopt when they hold
  /// no complete one.
  std::optional<Request> frame();
  /// Free space after the buffered bytes: compacts, and grows the buffer
  /// up to kMaxRequestBytes.  Never empty.
  std::span<char> reserve();
  /// Lets a last line without its newline end at the end of the stream.
  void end_stream();
  void expect_clean_end() const;

  std::vector<char> buffer_;
  std::size_t begin_ = 0;  ///< first byte not yet framed
  std::size_t end_ = 0;    ///< one past the last buffered byte
  /// The analyze request whose header is framed and whose body is not
  /// complete yet; its header line starts at begin_.
  std::optional<Request> pending_;
  std::size_t body_ = 0;  ///< where pending_'s body starts, from begin_
  std::size_t scan_ = 0;  ///< pending_'s lines up to here are examined
  bool ended_ = false;    ///< the stream ended
};

/// Parses a wire request's body into a full AnalysisRequest.  Throws
/// ProtocolError when the body is not a valid io:: task set (the request
/// is answerable with an error response; the stream itself is fine).
[[nodiscard]] AnalysisRequest parse_analyze(const WireAnalyze& wire);

/// Client-side serializers (exact inverses of RequestFramer::next).
void write_analyze_request(std::ostream& out, std::uint64_t id,
                           const AnalysisRequest& req);
void write_command(std::ostream& out, std::uint64_t id, Request::Kind kind);

/// An analyze response's result fields, "success" through "partition",
/// each after its comma: rendered once per cache entry (CachedAnalysis).
[[nodiscard]] std::string result_fields(const AnalysisResult& result);

/// Appends one analyze response (one JSON object, no newline) to `out`.
/// `fields` is result_fields of the answer.
void append_analysis_response(std::string& out, std::uint64_t id,
                              std::uint64_t fingerprint, bool cached,
                              std::string_view fields, double elapsed_us);

/// Builders of the other responses.  Each returns a complete JSON document;
/// the server writes `dump()` plus a newline.
[[nodiscard]] util::Json pong_response(std::uint64_t id);
[[nodiscard]] util::Json stats_response(std::uint64_t id,
                                        const CacheStats& stats,
                                        std::uint64_t requests_served);
[[nodiscard]] util::Json error_response(std::uint64_t id,
                                        const std::string& message);

}  // namespace mcs::svc
