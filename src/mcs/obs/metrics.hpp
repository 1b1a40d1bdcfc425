// Lightweight observability layer: a process-wide registry of named
// counters, timers and histograms, instrumented into the hot paths
// (PlacementEngine probes/commits, CA-TPA repair, sim-engine mode switches
// and deadline checks) so experiment sweeps can report *why* numbers move.
//
// Cost model: every instrument is gated on one relaxed atomic flag that is
// off by default, so the disabled path is a load + predictable branch and
// recorded values stay zero.  When enabled, counters are relaxed atomic
// increments — safe under the Monte-Carlo thread pool, and deterministic in
// total because every increment derives from deterministic per-trial work.
// Timers read the steady clock only while enabled; their values are
// wall-clock and therefore *not* deterministic, which is why the experiment
// orchestrator persists counter deltas but never timer values into
// artifacts (checkpoint resume must be bit-identical).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mcs::obs {

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// Bucket count shared by Histogram and MetricsCapture (defined before
/// both so the capture can size its bucket arrays).
inline constexpr std::size_t kHistogramBuckets = 65;
using BucketCounts = std::array<std::uint64_t, kHistogramBuckets>;

/// The metered events a ThreadMetricsSink saw, keyed by instrument address
/// (stable for the process lifetime; Registry::resolve turns the keys back
/// into names).  Plain data: the captures of disjoint work add up with +=,
/// so a sweep point run as several chunks sums its chunks' captures.
///
/// Linear-scan vectors: a sweep point touches ~a dozen distinct
/// instruments, and the same counter is hit repeatedly (the scan usually
/// terminates on its first probe), so this beats a map on the hot path.
struct MetricsCapture {
  std::vector<std::pair<const void*, std::uint64_t>> counters;
  std::vector<std::pair<const void*, BucketCounts>> histograms;

  void add_counter(const void* counter, std::uint64_t n) {
    for (auto& [key, value] : counters) {
      if (key == counter) {
        value += n;
        return;
      }
    }
    counters.emplace_back(counter, n);
  }

  /// The bucket counts of `histogram`, zero-initialized on first use.
  BucketCounts& buckets(const void* histogram) {
    for (auto& [key, counts] : histograms) {
      if (key == histogram) return counts;
    }
    return histograms.emplace_back(histogram, BucketCounts{}).second;
  }

  MetricsCapture& operator+=(const MetricsCapture& other) {
    for (const auto& [key, n] : other.counters) add_counter(key, n);
    for (const auto& [key, counts] : other.histograms) {
      BucketCounts& mine = buckets(key);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) mine[b] += counts[b];
    }
    return *this;
  }
};

namespace detail {
inline thread_local MetricsCapture* t_capture = nullptr;
}  // namespace detail

/// Installs `capture` as this thread's sink: until the sink is destroyed,
/// every metered event recorded *on this thread* is also added to it.  The
/// global instruments still update (a sink observes, it does not
/// redirect), so snapshots taken elsewhere stay correct; what the sink adds
/// is attribution: when several sweep chunks run concurrently on different
/// threads, each chunk's capture holds exactly its own increments.
///
/// Install/uninstall is RAII and nestable (the innermost sink captures).
/// Hot-path cost when no sink is installed: one thread-local load and a
/// predicted branch, paid only on the already-metered (enabled) path.
class ThreadMetricsSink {
 public:
  explicit ThreadMetricsSink(MetricsCapture& capture) noexcept
      : previous_(detail::t_capture) {
    detail::t_capture = &capture;
  }
  ~ThreadMetricsSink() { detail::t_capture = previous_; }
  ThreadMetricsSink(const ThreadMetricsSink&) = delete;
  ThreadMetricsSink& operator=(const ThreadMetricsSink&) = delete;

 private:
  MetricsCapture* previous_;
};

/// Whether instruments record anything.  Relaxed: hot paths tolerate a
/// slightly stale view around the enable/disable edge.
[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

inline void set_metrics_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// RAII toggle restoring the previous state (used by the orchestrator and
/// by tests so a failure cannot leak an enabled registry).
class MetricsEnabledGuard {
 public:
  explicit MetricsEnabledGuard(bool on) noexcept : previous_(metrics_enabled()) {
    set_metrics_enabled(on);
  }
  ~MetricsEnabledGuard() { set_metrics_enabled(previous_); }
  MetricsEnabledGuard(const MetricsEnabledGuard&) = delete;
  MetricsEnabledGuard& operator=(const MetricsEnabledGuard&) = delete;

 private:
  bool previous_;
};

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
    if (MetricsCapture* capture = detail::t_capture) {
      capture->add_counter(this, n);
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulated duration + call count (nanoseconds).
class Timer {
 public:
  void record(std::uint64_t ns) noexcept {
    if (!metrics_enabled()) return;
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    total_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Scope guard recording its lifetime into a Timer.  The clock is read only
/// while metrics are enabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer) noexcept
      : timer_(timer), armed_(metrics_enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!armed_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    timer_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer& timer_;
  bool armed_;
  std::chrono::steady_clock::time_point start_{};
};

/// Power-of-two bucketed histogram of unsigned values: bucket b counts
/// values with bit_width b (bucket 0 is the value 0).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = kHistogramBuckets;

  void record(std::uint64_t value) noexcept {
    if (!metrics_enabled()) return;
    buckets_[static_cast<std::size_t>(std::bit_width(value))].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    if (MetricsCapture* capture = detail::t_capture) {
      ++capture->buckets(this)[static_cast<std::size_t>(std::bit_width(value))];
    }
    // Running maximum via CAS: a failed exchange reloads `seen`, so the
    // loop terminates as soon as another thread published a larger value.
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Largest recorded value (0 when nothing was recorded).
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Rank-based percentile estimate for q in [0, 1]: the upper bound of
  /// the pow2 bucket containing the q-th ranked value, clamped to max().
  /// Exact for p0/p100 of power-of-two-minus-one data, otherwise an upper
  /// bound within 2x (the bucket width).  Returns 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// The q-th ranked value's bucket upper bound for a raw pow2 bucket-count
/// array (the building block behind Histogram::percentile and
/// histogram_percentile_deltas).  Returns 0 when all buckets are zero.
[[nodiscard]] std::uint64_t percentile_from_buckets(
    const std::array<std::uint64_t, Histogram::kBuckets>& buckets,
    double q) noexcept;

/// Point-in-time copy of every registered instrument.
///
/// Ordering contract: the maps are keyed lexicographically by instrument
/// name (std::map), so iterating a snapshot — and everything rendered from
/// one (reports, artifact counter blocks) — is deterministic and identical
/// across platforms.  Pinned by ObsMetrics.SnapshotOrderIsLexicographic.
struct MetricsSnapshot {
  struct TimerData {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  struct HistogramData {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    /// Raw bucket counts, so deltas between snapshots can re-derive the
    /// distribution of values recorded in between.
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, TimerData> timers;
  std::map<std::string, HistogramData> histograms;
};

/// Counters that grew between two snapshots (nonzero deltas only; a counter
/// registered after `before` counts from zero).
[[nodiscard]] std::map<std::string, std::uint64_t> counter_deltas(
    const MetricsSnapshot& before, const MetricsSnapshot& after);

/// Percentiles of the histogram values recorded *between* two snapshots,
/// flattened to "<name>.p50" / ".p90" / ".p99" pseudo-counters (only for
/// histograms whose count grew).  Histogram values are deterministic
/// per-trial quantities (unlike timers), so these merge safely into
/// checkpointed per-point counter maps.
[[nodiscard]] std::map<std::string, std::uint64_t> histogram_percentile_deltas(
    const MetricsSnapshot& before, const MetricsSnapshot& after);

/// Process-wide instrument registry.  Lookup by name registers on first
/// use and always returns the same object, whose address is stable for the
/// process lifetime — hot paths cache references at namespace scope.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Timer& timer(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Names a capture's events: each counter's increment, plus
  /// "<name>.p50/.p90/.p99" pseudo-counters for each histogram that
  /// recorded a value.  Had the captured work been the only metered work
  /// between two snapshots, this equals counter_deltas merged with
  /// histogram_percentile_deltas of those snapshots.  Entries for
  /// instruments unknown to this registry are dropped (cannot happen for
  /// instruments obtained via counter()/histogram()).
  [[nodiscard]] std::map<std::string, std::uint64_t> resolve(
      const MetricsCapture& capture) const;

  /// Zeroes every instrument (names stay registered).
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for Registry::instance().
[[nodiscard]] inline Registry& registry() { return Registry::instance(); }

}  // namespace mcs::obs
