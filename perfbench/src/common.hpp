// Shared pieces of the perfbench harness: the run report printed as the
// last stdout line, the host-speed gauge behind every reported time,
// latency statistics, and the span recorder that splits an op's time by
// layer in traced runs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// How fast the host runs right now, read off a fixed computation that the
/// benchmark owns.
///
/// Other tenants of a shared host slow this process's branchy,
/// cache-resident code by up to 2x, in phases of a fraction of a second to
/// tens of seconds, while a plain arithmetic loop slows by about 10%.  The
/// gauge is code of the same kind as the library's hot paths: first-fit
/// placement of 16 fixed task sets (40-200 tasks, 4 levels) onto 8 cores
/// under a per-core test of floating-point sums, divisions and
/// data-dependent branches, with a few tens of KiB of state.  It lives
/// here, not in the library, so no library change can move it.
///
/// Every time the benchmark reports is reference time: wall time divided by
/// the slowdown the gauge read around it.  Ops run in blocks of
/// kGaugeBlockNs; the gauge runs between blocks, off the clock, and a
/// block's slowdown is the mean of the readings before and after it.
class HostGauge {
 public:
  /// Gauge time of a host that counts as unslowed, about the median
  /// reading on an idle 4-vCPU Xeon (Sapphire Rapids) guest, so reference
  /// times read close to wall times there.
  static constexpr double kNominalNs = 250'000.0;

  HostGauge();

  /// Runs the gauge five times and returns the median time over
  /// kNominalNs: 1 on an unslowed host, 2 when it runs at half speed.
  [[nodiscard]] double slowdown();

  /// Tasks placed by every gauge run so far; the same for every run, and
  /// kept so the compiler cannot drop the work.
  [[nodiscard]] std::uint64_t placed() const noexcept { return placed_; }

 private:
  struct Task {
    std::array<double, 4> util;  ///< utilization per criticality level
    std::size_t level;
  };
  std::uint64_t run_once();
  /// First fit of one set onto 8 cores; returns the tasks placed.
  static std::uint64_t place(const std::vector<Task>& tasks);

  std::vector<std::vector<Task>> sets_;
  std::uint64_t placed_ = 0;
};

/// Reference time of work done in stretches, each ended by a gauge reading:
/// a stretch's wall time over the mean of the readings before and after it.
/// The gauge's own time is in no stretch.
class ReferenceStopwatch {
 public:
  /// Starts the first stretch; `slowdown` is the reading taken just before.
  ReferenceStopwatch(HostGauge& gauge, double slowdown)
      : gauge_(gauge), slowdown_(slowdown), start_ns_(now_ns()) {}

  /// Ends the current stretch with a gauge reading and starts the next one.
  /// Returns the stretch's slowdown.
  double lap();

  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  /// The latest gauge reading.
  [[nodiscard]] double reading() const noexcept { return slowdown_; }

 private:
  HostGauge& gauge_;
  double slowdown_;
  std::int64_t start_ns_;
  double seconds_ = 0.0;
};

/// Wall time of one block of ops between two gauge readings, and the most
/// latencies a block buffers before it ends early.
inline constexpr std::int64_t kGaugeBlockNs = 40'000'000;
inline constexpr std::size_t kMaxBlockOps = 4096;

/// Timed windows of a traced run, which alternates untraced and traced
/// windows; an untraced run times one window.
inline constexpr int kTracedWindows = 4;

/// Latency samples one timed loop keeps (512 KiB).
inline constexpr std::size_t kMaxSamples = std::size_t{1} << 16;

/// The latency samples of one timed loop: every op's latency until
/// kMaxSamples are kept, then a uniform random sample of all of them
/// (reservoir sampling, Vitter's algorithm R).  The buffer is allocated and
/// made resident before timing starts, so the harness's share of peak RSS
/// is fixed and small and does not grow with throughput.
class LatencySamples {
 public:
  /// `seed` picks which samples a full reservoir replaces.
  explicit LatencySamples(std::uint64_t seed)
      : values_(kMaxSamples, -1.0), rng_state_(seed) {}

  void add(double us);

  [[nodiscard]] std::span<const double> values() const noexcept {
    return {values_.data(), size_};
  }

 private:
  std::vector<double> values_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_state_;
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's scratch files (server socket, span dump).
  /// Relative paths keep the AF_UNIX socket path short.
  std::string scratch = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints.  `correct` turns false on any wrong output; failed
/// ops also include ops that produced no output (timeouts, disconnects).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t samples = 0;  ///< latency samples behind the percentiles
  int tail = 0;             ///< the percentile reported as tail_us
  double slowdown = 0.0;    ///< median host gauge reading of the run
  double wall_ops_per_s = 0.0;  ///< throughput in wall time, for reference
  std::vector<Metric> metrics;

  /// Adds a metric; a non-finite value makes the run incorrect.
  void add(std::string name, double value, std::string unit);
  /// Records a failed output check (and explains it on stderr).
  void wrong(const std::string& why);
};

/// A metric's name and unit as declared in BENCHMARK.json.
struct MetricDecl {
  std::string name;
  std::string unit;

  bool operator==(const MetricDecl&) const = default;
};

/// Anonymous resident memory of this process now in MiB, counted exactly
/// (see common.cpp); NaN when the kernel does not say.
[[nodiscard]] double rss_mb();

/// How far anonymous resident memory rose above its size at construction,
/// as the largest of the samples taken.  The workloads sample after set-up
/// and after every block of ops, between ops.
class PeakRss {
 public:
  PeakRss();
  void sample();
  [[nodiscard]] double rise_mb() const noexcept { return peak_mb_ - base_mb_; }

 private:
  double base_mb_;
  double peak_mb_;
};

/// The end-to-end metrics every untraced run prints, in print order.
[[nodiscard]] const std::vector<MetricDecl>& end_to_end_metrics();

/// Adds the end-to-end metrics: the set-up time, throughput, the median
/// and `tail`-th percentile of the op latencies, and how far resident
/// memory rose.  A tail with fewer than ten samples beyond it makes the run
/// incorrect.
void add_end_to_end(Report& report, double setup_s, double ops_per_s,
                    std::vector<double> latency_us, int tail,
                    const PeakRss& rss);

/// Every per-layer metric a traced run prints, in print order.
[[nodiscard]] const std::vector<MetricDecl>& layer_metrics();

/// Adds every layer_metrics() entry to `report`, taking values from
/// `values`; a layer the workload does not exercise reports 0.
void add_layer_metrics(Report& report,
                       const std::map<std::string, double>& values);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
[[nodiscard]] std::string to_json(const Report& report);

/// Per-layer metric key of a scheme display name: '/' becomes '-'
/// ("UD-TPA/ge" -> "UD-TPA-ge").
[[nodiscard]] std::string sanitize_scheme(std::string_view display);

/// The median of `values` (the lower one of an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile of sorted samples, q in (0, 1].
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// The highest of the reported tail percentiles (99, then 90) that leaves
/// at least ten samples beyond it; 0 when even p90 does not.
[[nodiscard]] int tail_percentile(std::size_t samples);

/// In-memory span recorder, one per thread.  A span records its name, start
/// and end, the span it nests in, and the op it belongs to.  Disabled
/// tracers record nothing, so untraced runs pay one branch per span site.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    const char* name = nullptr;  ///< static or caller-owned for the run
    std::uint32_t parent = kNoParent;
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double slowdown = 1.0;  ///< the host gauge's reading around the span
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  std::uint32_t open(const char* name) {
    if (!enabled_) return kNoParent;
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{name, open_.empty() ? kNoParent : open_.back(), op_,
                          now_ns(), 0});
    open_.push_back(index);
    return index;
  }

  void close(std::uint32_t index) {
    if (index == kNoParent) return;
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  /// Sets the slowdown of every span from index `first` on.
  void set_slowdown_from(std::size_t first, double slowdown) {
    for (std::size_t i = first; i < spans_.size(); ++i) {
      spans_[i].slowdown = slowdown;
    }
  }

  [[nodiscard]] const std::deque<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::deque<Span> spans_;  ///< deque: growth never moves recorded spans
  std::vector<std::uint32_t> open_;
};

/// RAII span on a Tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t index_;
};

/// Self time (duration minus the time covered by child spans) summed per
/// span name over one or more tracers, plus the root "op" spans' totals;
/// reference time, each span's duration over its slowdown.
struct LayerTimes {
  std::map<std::string, double> self_ns;
  double op_total_ns = 0.0;  ///< summed duration of the "op" spans
  std::uint64_t ops = 0;     ///< number of "op" spans
};

inline constexpr const char* kOpSpan = "op";

[[nodiscard]] LayerTimes layer_times(std::span<const Tracer* const> tracers);

/// Writes every span as a tab-separated line (thread, op, name, parent,
/// start_ns, end_ns).  Returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 std::span<const Tracer* const> tracers);

}  // namespace mcs::perfbench
