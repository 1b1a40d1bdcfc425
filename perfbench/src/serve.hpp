// The serve-mix workload: an in-process svc::Server at daemon defaults,
// driven over its AF_UNIX socket by closed-loop connections that send
// pre-rendered analyze requests and check every response line.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common.hpp"
#include "mcs/svc/analysis.hpp"

namespace mcs::perfbench {

/// Which task set each request names.  Per connection, requests come in
/// groups of four: three for the connection's hot sets (cycled) and one for
/// its cold pool (cycled).  Connections never share sets.  The daemon's LRU
/// cache holds the kCacheCapacity most recently touched sets.  Between two
/// requests for one hot set its connection touches 31 other hot sets and
/// at most 11 cold ones; even if the other connection ran ten times faster
/// meanwhile (32 hot + 110 cold) that is fewer than 256 sets, so the hot
/// set is still cached.  A cold set recurs only after its connection
/// touched 255 other cold sets and all 32 hot ones, 287 > 256 sets, so it
/// has been evicted.  Every hot request hits, every cold one misses, and
/// the hit ratio is exactly 0.75 over whole groups.  The sizes are fixed:
/// the argument holds for these values only (see the static_asserts).
struct ServeSchedule {
  static constexpr std::size_t kConnections = 2;
  static constexpr std::size_t kHot = 32;    ///< hot sets per connection
  static constexpr std::size_t kCold = 256;  ///< cold sets per connection
  static constexpr std::size_t kCacheCapacity = 256;  ///< the daemon default
  static constexpr std::size_t kSets = kConnections * (kHot + kCold);

  [[nodiscard]] static bool is_hit(std::uint64_t op) { return op % 4 != 3; }
  /// The set requested by connection `connection`'s op number `op`.
  [[nodiscard]] static std::size_t set_of(std::size_t connection,
                                          std::uint64_t op);
  /// The k-th hot set of a connection (the set-up warms these).
  [[nodiscard]] static std::size_t hot_set(std::size_t connection,
                                           std::size_t k) {
    return connection * kHot + k;
  }
};

// A hot set stays cached: the sets touched between two requests for it
// (the rest of its connection's hot cycle and the cold requests among
// them, plus the other connection at ten times the pace) fit in the cache.
static_assert((ServeSchedule::kHot - 1) + (ServeSchedule::kHot + 2) / 3 +
                  ServeSchedule::kHot + 10 * ((ServeSchedule::kHot + 2) / 3) <
              ServeSchedule::kCacheCapacity);
// A cold set is evicted before it recurs: its connection alone touches
// more other sets in between than the cache holds.
static_assert((ServeSchedule::kCold - 1) + ServeSchedule::kHot >=
              ServeSchedule::kCacheCapacity);

/// An analyze request on the wire, rendered as docs/PROTOCOL.md specifies
/// (io:: task-set text at round-trip precision), with request id `id`.
[[nodiscard]] std::string render_request(std::uint64_t id,
                                         const svc::AnalysisRequest& request);

/// The response a request must get: the line reads
///   head + ("true" | "false") + tail + <elapsed_us> + "}"
/// where the flag is "cached" and head/tail render the in-process
/// svc::analyze result in the documented field order.
struct ExpectedResponse {
  std::string head;
  std::string tail;
};

[[nodiscard]] ExpectedResponse expected_response(
    std::uint64_t id, std::uint64_t fingerprint,
    const svc::AnalysisResult& result);

/// Checks a response line (without its newline) against `expected`, with
/// the "cached" flag required to equal `cached`.  Returns the server's
/// elapsed_us, or nullopt with the reason in `why`.
[[nodiscard]] std::optional<double> check_response(
    std::string_view line, const ExpectedResponse& expected, bool cached,
    std::string& why);

[[nodiscard]] Report run_serve(const Options& options);

}  // namespace mcs::perfbench
