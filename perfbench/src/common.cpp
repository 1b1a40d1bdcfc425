#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "mcs/gen/rng.hpp"

namespace mcs::perfbench {

namespace {

constexpr std::size_t kGaugeSets = 16;
constexpr std::size_t kGaugeCores = 8;
constexpr std::size_t kGaugeLevels = 4;
constexpr int kGaugePasses = 4;  ///< passes over the sets per gauge run
constexpr int kGaugeRuns = 5;

/// splitmix64, kept here so the gauge's sets never change with the
/// library's generator.
std::uint64_t gauge_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

HostGauge::HostGauge() {
  std::uint64_t state = 20160815;
  for (std::size_t s = 0; s < kGaugeSets; ++s) {
    std::vector<Task>& tasks =
        sets_.emplace_back(40 + gauge_random(state) % 161);
    for (Task& task : tasks) {
      task.level = gauge_random(state) % kGaugeLevels;
      const double base =
          0.002 + static_cast<double>(gauge_random(state) % 1000) * 2e-5;
      for (std::size_t l = 0; l < kGaugeLevels; ++l) {
        task.util[l] = base * (1.0 + 0.4 * static_cast<double>(
                                             std::min(l, task.level)));
      }
    }
    std::sort(tasks.begin(), tasks.end(), [](const Task& a, const Task& b) {
      return a.util[a.level] > b.util[b.level];
    });
  }
}

std::uint64_t HostGauge::run_once() {
  std::uint64_t placed = 0;
  for (int pass = 0; pass < kGaugePasses; ++pass) {
    for (const std::vector<Task>& tasks : sets_) {
      placed += place(tasks);
    }
  }
  return placed;
}

std::uint64_t HostGauge::place(const std::vector<Task>& tasks) {
  // load[m][j][k]: utilization of core m's level-j tasks at level k.
  double load[kGaugeCores][kGaugeLevels][kGaugeLevels] = {};
  std::uint64_t placed = 0;
  for (const Task& task : tasks) {
    for (std::size_t m = 0; m < kGaugeCores; ++m) {
      double trial[kGaugeLevels][kGaugeLevels];
      std::copy(&load[m][0][0], &load[m][0][0] + kGaugeLevels * kGaugeLevels,
                &trial[0][0]);
      for (std::size_t k = 0; k <= task.level; ++k) {
        trial[task.level][k] += task.util[k];
      }
      double lambda = 1.0;
      double sum = 0.0;
      bool fits = true;
      for (std::size_t k = 0; k < kGaugeLevels && fits; ++k) {
        double lower = 0.0;
        for (std::size_t j = 0; j < k; ++j) lower += trial[j][j];
        if (lower >= 1.0) {
          fits = false;
          break;
        }
        const double scaled = trial[k][k] / (1.0 - lower);
        lambda = std::min(lambda, 1.0 - 0.5 * scaled);
        sum += scaled;
        fits = sum <= 1.0 + lambda;
      }
      if (fits) {
        std::copy(&trial[0][0], &trial[0][0] + kGaugeLevels * kGaugeLevels,
                  &load[m][0][0]);
        ++placed;
        break;
      }
    }
  }
  return placed;
}

double HostGauge::slowdown() {
  std::array<std::int64_t, kGaugeRuns> ns{};
  for (std::int64_t& t : ns) {
    const std::int64_t start = now_ns();
    placed_ += run_once();
    t = now_ns() - start;
  }
  std::nth_element(ns.begin(), ns.begin() + kGaugeRuns / 2, ns.end());
  return static_cast<double>(ns[kGaugeRuns / 2]) / kNominalNs;
}

double ReferenceStopwatch::lap() {
  const double wall_s = static_cast<double>(now_ns() - start_ns_) * 1e-9;
  const double after = gauge_.slowdown();
  const double stretch = 0.5 * (slowdown_ + after);
  seconds_ += wall_s / stretch;
  slowdown_ = after;
  start_ns_ = now_ns();
  return stretch;
}

void LatencySamples::add(double us) {
  ++seen_;
  if (size_ < values_.size()) {
    values_[size_++] = us;
    return;
  }
  const std::uint64_t slot = gen::splitmix64(rng_state_) % seen_;
  if (slot < values_.size()) values_[slot] = us;
}

void Report::wrong(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: check failed: " << why << '\n';
}

void Report::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) wrong("metric " + name + " is not finite");
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

std::string to_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    // Every digit as measured; JSON has no non-finite numbers, and add()
    // already marked such a run incorrect.
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> metrics = {{"setup_s", "s"},
                                                  {"ops_per_s", "1/s"},
                                                  {"p50_us", "us"},
                                                  {"tail_us", "us"},
                                                  {"peak_rss_mb", "MiB"}};
  return metrics;
}

void add_end_to_end(Report& report, double setup_s, double ops_per_s,
                    std::vector<double> latency_us, int tail,
                    const PeakRss& rss) {
  std::sort(latency_us.begin(), latency_us.end());
  if (tail_percentile(latency_us.size()) < tail) {
    report.wrong(std::to_string(latency_us.size()) +
                 " latency samples leave fewer than 10 beyond p" +
                 std::to_string(tail));
  }
  const double values[] = {setup_s, ops_per_s,
                           quantile_sorted(latency_us, 0.50),
                           quantile_sorted(latency_us, tail / 100.0),
                           rss.rise_mb()};
  for (std::size_t i = 0; i < end_to_end_metrics().size(); ++i) {
    report.add(end_to_end_metrics()[i].name, values[i],
               end_to_end_metrics()[i].unit);
  }
  report.samples = latency_us.size();
  report.tail = tail;
}

const std::vector<MetricDecl>& layer_metrics() {
  static const std::vector<MetricDecl> metrics = [] {
    std::vector<MetricDecl> out = {{"gen.trial_us", "us"},
                                    {"analysis.reset_us", "us"},
                                    {"analysis.metrics_us", "us"}};
    // Both sweep line-ups; CA-TPA runs in each.
    for (const char* scheme : {"WFD", "FFD", "BFD", "Hybrid", "CA-TPA",
                               "UD-TPA", "UD-TPA/ge", "GE-FFD", "DBF-FFD"}) {
      const std::string key = "partition." + sanitize_scheme(scheme);
      out.push_back({key + ".us", "us"});
      out.push_back({key + ".probes", "count"});
      out.push_back({key + ".ns_per_probe", "ns"});
    }
    for (const char* name :
         {"analysis.eq4_accept_ratio", "analysis.infeasible_ratio"}) {
      out.push_back({name, "ratio"});
    }
    for (const char* name :
         {"svc.window_hit_us", "svc.outside_hit_us", "svc.window_miss_us",
          "svc.outside_miss_us", "io.parse_est_us", "analysis.analyze_us"}) {
      out.push_back({name, "us"});
    }
    out.push_back({"svc.cache.hit_ratio", "ratio"});
    out.push_back({"op.uncovered_share", "ratio"});
    out.push_back({"trace.overhead_pct", "%"});
    return out;
  }();
  return metrics;
}

void add_layer_metrics(Report& report,
                       const std::map<std::string, double>& values) {
  for (const MetricDecl& metric : layer_metrics()) {
    const auto it = values.find(metric.name);
    report.add(metric.name, it == values.end() ? 0.0 : it->second,
               metric.unit);
  }
  for (const auto& [name, value] : values) {
    const bool declared = std::any_of(
        layer_metrics().begin(), layer_metrics().end(),
        [&](const MetricDecl& m) { return m.name == name; });
    if (!declared) report.wrong("undeclared per-layer metric " + name);
  }
}

std::string sanitize_scheme(std::string_view display) {
  std::string out(display);
  std::replace(out.begin(), out.end(), '/', '-');
  return out;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

int tail_percentile(std::size_t samples) {
  // p-th percentile leaves samples * (100 - p) / 100 values beyond it.
  for (const int p : {99, 90}) {
    if (samples * static_cast<std::size_t>(100 - p) >= 10 * 100) return p;
  }
  return 0;
}

// Anonymous pages (heap, stacks, anonymous mappings), counted from the page
// tables.  File-backed pages are left out: they are mostly the binary's
// code, mapped in as each function first runs, so they measure which code
// ran rather than the memory it used.  Not VmRSS or VmHWM of
// /proc/self/status: they read the kernel's per-CPU RSS counters, which lag
// by up to a few dozen pages per CPU, so on a 4-vCPU guest identical runs
// read up to 0.2 MiB apart.  Not getrusage() either: its ru_maxrss keeps
// the high-water mark of the process image an exec replaced, here the
// Python wrapper that forked this one.
double rss_mb() {
  std::ifstream rollup("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(rollup, line)) {
    if (line.starts_with("Anonymous:")) {
      return std::stod(line.substr(10)) / 1024.0;  // KiB
    }
  }
  return std::nan("");
}

PeakRss::PeakRss() : base_mb_(rss_mb()), peak_mb_(base_mb_) {}

void PeakRss::sample() { peak_mb_ = std::max(peak_mb_, rss_mb()); }

LayerTimes layer_times(std::span<const Tracer* const> tracers) {
  LayerTimes out;
  std::vector<double> self;
  for (const Tracer* tracer : tracers) {
    const std::deque<Tracer::Span>& spans = tracer->spans();
    self.assign(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double duration =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) /
          spans[i].slowdown;
      self[i] += duration;
      if (spans[i].parent != Tracer::kNoParent) {
        self[spans[i].parent] -= duration;
      }
      if (std::string_view(spans[i].name) == kOpSpan) {
        out.op_total_ns += duration;
        ++out.ops;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out.self_ns[spans[i].name] += self[i];
    }
  }
  return out;
}

bool write_spans(const std::string& path,
                 std::span<const Tracer* const> tracers) {
  std::ofstream out(path);
  out << "thread\top\tname\tparent\tstart_ns\tend_ns\tslowdown\n";
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    for (const Tracer::Span& span : tracers[t]->spans()) {
      out << t << '\t' << span.op << '\t' << span.name << '\t'
          << (span.parent == Tracer::kNoParent
                  ? std::string("-")
                  : std::to_string(span.parent))
          << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
          << span.slowdown << '\n';
    }
  }
  return static_cast<bool>(out.flush());
}

}  // namespace mcs::perfbench
