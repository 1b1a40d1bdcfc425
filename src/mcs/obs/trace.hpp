// Span-based tracing: a per-thread flight-recorder ring of timestamped
// events, exportable as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing).
//
// Cost model, mirroring obs::metrics: every emission point is gated on one
// relaxed atomic flag that is off by default, so the disabled path is a
// load + predictable branch (no clock read, no ring access).  When enabled,
// a push is a handful of stores into a thread-local fixed-capacity ring —
// no allocation, no locking, no contention; the ring silently overwrites
// its oldest records, which is exactly the flight-recorder semantics the
// verify:: failure dumps want.  Sites are described by `TraceSite` objects
// with static-storage string literals, so records carry only pointers and
// small integers.
//
// Determinism caveat: timestamps and durations are wall-clock (steady
// clock, nanoseconds since a process-wide epoch) and therefore *not*
// deterministic.  Traces are diagnostics — they must never be persisted
// into checkpoint or artifact files that are compared byte-for-byte.
//
// Concurrency contract: rings are single-writer (the owning thread) and the
// record slots themselves are plain memory, so `collect_trace` /
// `chrome_trace_json` / `reset_trace` must only run while producer threads
// are quiescent (e.g. after `util::parallel_for` returned, or with tracing
// disabled).  Threads that exit return their ring to a free list, so the
// short-lived workers spawned by the Monte-Carlo thread pool reuse a
// bounded set of rings instead of growing the registry per sweep point.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mcs/util/json.hpp"

namespace mcs::obs {

namespace trace_detail {
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace trace_detail

/// Whether trace sites record anything.  Relaxed: hot paths tolerate a
/// slightly stale view around the enable/disable edge.
[[nodiscard]] inline bool trace_enabled() noexcept {
  return trace_detail::g_trace_enabled.load(std::memory_order_relaxed);
}

inline void set_trace_enabled(bool on) noexcept {
  trace_detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

/// RAII toggle restoring the previous state (tools and tests).
class TraceEnabledGuard {
 public:
  explicit TraceEnabledGuard(bool on) noexcept : previous_(trace_enabled()) {
    set_trace_enabled(on);
  }
  ~TraceEnabledGuard() { set_trace_enabled(previous_); }
  TraceEnabledGuard(const TraceEnabledGuard&) = delete;
  TraceEnabledGuard& operator=(const TraceEnabledGuard&) = delete;

 private:
  bool previous_;
};

/// Static description of an emission site.  Must have static storage
/// duration (records keep the pointer): define as `constexpr` at namespace
/// scope in the instrumented .cpp.  `arg0..arg2` name the integer args in
/// the exported JSON; a null name drops the corresponding arg.
struct TraceSite {
  const char* name;
  const char* arg0 = nullptr;
  const char* arg1 = nullptr;
  const char* arg2 = nullptr;
};

enum class TraceKind : std::uint8_t {
  kSpan,     ///< duration event ("X"): ts_ns .. ts_ns + dur_ns
  kInstant,  ///< point event ("i")
  kCounter,  ///< sampled value ("C"); dur_ns carries the value
};

/// One ring slot: 56 bytes, trivially copyable.
struct TraceRecord {
  const TraceSite* site = nullptr;
  TraceKind kind = TraceKind::kInstant;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;  ///< span duration, or counter value
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t a2 = 0;
};

/// Fixed-capacity single-writer ring.  `push` never allocates or blocks;
/// once full it overwrites the oldest record.  The head index is atomic so
/// a collector can read a consistent count, but slots are plain memory —
/// see the quiescence contract in the file comment.
class TraceRing {
 public:
  static constexpr std::size_t kCapacity = 4096;  // power of two
  static_assert((kCapacity & (kCapacity - 1)) == 0);

  explicit TraceRing(std::size_t track) noexcept : track_(track) {}

  void push(const TraceRecord& record) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    records_[head & (kCapacity - 1)] = record;
    head_.store(head + 1, std::memory_order_release);
  }

  /// Total records ever pushed (≥ the number retained).
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Stable per-ring id; becomes the `tid` in the Chrome export.
  [[nodiscard]] std::size_t track() const noexcept { return track_; }

  /// Copies the retained records, oldest first.
  void snapshot(std::vector<TraceRecord>& out) const;

  void clear() noexcept { head_.store(0, std::memory_order_relaxed); }

 private:
  std::vector<TraceRecord> records_ = std::vector<TraceRecord>(kCapacity);
  std::atomic<std::uint64_t> head_{0};
  std::size_t track_;
};

/// This thread's ring; registers (or reuses a returned ring) on first use.
[[nodiscard]] TraceRing& local_trace_ring();

/// Nanoseconds on the steady clock since a process-wide epoch (latched on
/// first call, so all threads share one timeline).
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

// Every record takes this thread's ring *before* it reads the clock.  A
// thread's first record may take over a ring that an exited thread parked;
// taking it first keeps every parked record older than the new one, so each
// ring's timestamps stay in push order and no track mixes the overlapping
// lifetimes of two threads.

namespace trace_detail {
/// Out-of-line slow path: takes the local ring, then stamps and pushes.
/// `value` lands in dur_ns: a counter's sample, 0 for an instant.
void emit(TraceKind kind, const TraceSite& site, std::uint64_t value,
          std::uint64_t a0, std::uint64_t a1, std::uint64_t a2) noexcept;
}  // namespace trace_detail

inline void trace_instant(const TraceSite& site, std::uint64_t a0 = 0,
                          std::uint64_t a1 = 0, std::uint64_t a2 = 0) noexcept {
  if (!trace_enabled()) return;
  trace_detail::emit(TraceKind::kInstant, site, 0, a0, a1, a2);
}

inline void trace_counter(const TraceSite& site,
                          std::uint64_t value) noexcept {
  if (!trace_enabled()) return;
  trace_detail::emit(TraceKind::kCounter, site, value, 0, 0, 0);
}

/// Nestable span recorded as one "X" event at scope exit (exit-time records
/// survive ring wrap-around better than begin/end pairs).  The ring is
/// taken and the clock read only while armed.
class ScopedSpan {
 public:
  /// Explicit arming, for sites that cache the enable flag outside a hot
  /// loop (e.g. once per sim core run) instead of re-reading the atomic.
  struct Armed {
    bool on;
  };

  explicit ScopedSpan(const TraceSite& site, std::uint64_t a0 = 0,
                      std::uint64_t a1 = 0, std::uint64_t a2 = 0) noexcept
      : ScopedSpan(site, Armed{trace_enabled()}, a0, a1, a2) {}

  ScopedSpan(const TraceSite& site, Armed armed, std::uint64_t a0 = 0,
             std::uint64_t a1 = 0, std::uint64_t a2 = 0) noexcept
      : site_(&site), a0_(a0), a1_(a1), a2_(a2) {
    if (armed.on) {
      ring_ = &local_trace_ring();
      start_ns_ = trace_now_ns();
    }
  }

  ~ScopedSpan() {
    if (ring_ == nullptr) return;
    const std::uint64_t now = trace_now_ns();
    ring_->push(TraceRecord{site_, TraceKind::kSpan, start_ns_,
                            now - start_ns_, a0_, a1_, a2_});
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const TraceSite* site_;
  TraceRing* ring_ = nullptr;  ///< null while disarmed
  std::uint64_t start_ns_ = 0;
  std::uint64_t a0_, a1_, a2_;
};

/// One thread's retained records at collection time.
struct ThreadTrace {
  std::size_t track = 0;
  std::uint64_t pushed = 0;  ///< total ever pushed (> records.size() ⇒ wrapped)
  std::vector<TraceRecord> records;
};

struct TraceSnapshot {
  std::vector<ThreadTrace> threads;
};

/// Copies every registered ring (including rings parked on the free list,
/// whose owning threads exited).  Quiescence contract applies.
[[nodiscard]] TraceSnapshot collect_trace();

/// Clears every registered ring.  Quiescence contract applies.
void reset_trace();

/// Merges a snapshot into a Chrome trace-event JSON document:
/// `{"traceEvents":[...]}` with "X"/"i"/"C" events (ts/dur in microseconds,
/// exact to the nanosecond via fixed-point lexemes), one metadata
/// thread-name event per track, and events sorted by timestamp so the
/// output is stable for a given snapshot.
[[nodiscard]] util::Json chrome_trace_json(const TraceSnapshot& snapshot);

// ---------------------------------------------------------------------------
// Trace summaries: per-span-name aggregates of a Chrome trace, computed
// from the exported JSON (so mcs_trace can digest traces from any run, not
// just in-process snapshots).

struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;    ///< sum of span durations
  std::uint64_t self_ns = 0;     ///< durations minus enclosed child spans
  std::uint64_t p50_self_ns = 0;
  std::uint64_t p99_self_ns = 0;
};

struct TraceSummary {
  std::string source;  ///< provenance note (input path or generator)
  std::vector<SpanStats> spans;  ///< ordered by self_ns desc, then name
};

/// Digests a Chrome trace-event document ("X" events only; instants and
/// counters are ignored).  Self time nests per `tid` by interval
/// containment.  Throws std::runtime_error when `doc` lacks a
/// `traceEvents` array or an event is malformed.
[[nodiscard]] TraceSummary summarize_chrome_trace(const util::Json& doc,
                                                  std::string source = "");

/// Serialization for committed summary artifacts (format
/// "mcs-trace-summary/1"); `parse_trace_summary` throws on malformed or
/// unknown-format input.
[[nodiscard]] util::Json trace_summary_json(const TraceSummary& summary);
[[nodiscard]] TraceSummary parse_trace_summary(const util::Json& doc);

}  // namespace mcs::obs
