// Tests of the benchmark's own machinery: each output check catches the
// fault it exists for, the tail rule, the scheme-name sanitizer, the host
// gauge and the reference-time split, and the serve-mix schedule's fixed
// hit ratio.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "mcs/analysis/placement.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/partition/registry.hpp"
#include "mcs/svc/cache.hpp"
#include "mcs/util/json.hpp"
#include "serve.hpp"
#include "sweep.hpp"

namespace mcs::perfbench {
namespace {

svc::AnalysisRequest sample_request(std::uint64_t trial) {
  gen::GenParams params;
  params.num_cores = 8;
  params.num_levels = 4;
  params.nsu = 0.6;
  return svc::AnalysisRequest{"CA-TPA", 8, 0.7,
                              gen::generate_trial(params, 7, trial)};
}

struct Sample {
  ExpectedResponse expected;
  std::string line;  ///< a correct cold ("cached":false) response
};

Sample sample_response() {
  const svc::AnalysisRequest request = sample_request(0);
  analysis::PlacementEngine engine;
  const svc::AnalysisResult result = svc::analyze(request, engine);
  Sample s;
  s.expected =
      expected_response(3, svc::request_fingerprint(request), result);
  s.line = s.expected.head + "false" + s.expected.tail + "42.125}";
  return s;
}

TEST(ResponseCheck, AcceptsTheExpectedResponse) {
  const Sample s = sample_response();
  std::string why;
  const std::optional<double> elapsed =
      check_response(s.line, s.expected, false, why);
  ASSERT_TRUE(elapsed.has_value()) << why;
  EXPECT_EQ(*elapsed, 42.125);
}

TEST(ResponseCheck, CatchesEveryFlippedByteOutsideElapsed) {
  const Sample s = sample_response();
  // Every byte up to the elapsed_us value is checked exactly.
  const std::size_t checked =
      s.expected.head.size() + 5 + s.expected.tail.size();
  for (std::size_t i = 0; i < checked; ++i) {
    std::string flipped = s.line;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    std::string why;
    EXPECT_FALSE(check_response(flipped, s.expected, false, why).has_value())
        << "byte " << i << " flipped: " << flipped.substr(0, 120);
  }
  std::string truncated = s.line.substr(0, s.line.size() - 1);
  std::string why;
  EXPECT_FALSE(check_response(truncated, s.expected, false, why).has_value());
}

TEST(ResponseCheck, CatchesACachedFlagOffTheSchedule) {
  const Sample s = sample_response();
  const std::string hit_line =
      s.expected.head + "true" + s.expected.tail + "3.5}";
  std::string why;
  EXPECT_FALSE(check_response(hit_line, s.expected, false, why).has_value());
  EXPECT_NE(why.find("schedule"), std::string::npos) << why;
  EXPECT_FALSE(check_response(s.line, s.expected, true, why).has_value());
  EXPECT_TRUE(check_response(hit_line, s.expected, true, why).has_value());
}

TEST(ResponseCheck, CatchesAnErrorResponse) {
  const Sample s = sample_response();
  std::string why;
  EXPECT_FALSE(check_response(
                   "{\"id\":3,\"ok\":false,\"error\":\"bad task set\"}",
                   s.expected, false, why)
                   .has_value());
}

TEST(RenderRequest, FollowsTheProtocolLayout) {
  const svc::AnalysisRequest request{
      "CA-TPA", 2, 0.7,
      TaskSet({McTask(1, {8, 20}, 50), McTask(2, {10}, 40)}, 2)};
  EXPECT_EQ(render_request(9, request),
            "mcs-serve/1 9 analyze CA-TPA 2 0.69999999999999996\n"
            "# mcs task set: 2 tasks, K = 2\n"
            "K 2\n"
            "task 1 50 8 20\n"
            "task 2 40 10\n"
            "end\n");
}

std::vector<std::vector<std::size_t>> cores_of(
    const analysis::PlacementEngine& engine) {
  std::vector<std::vector<std::size_t>> cores;
  for (std::size_t m = 0; m < engine.num_cores(); ++m) {
    cores.push_back(engine.partition().tasks_on(m));
  }
  return cores;
}

TEST(PartitionCheck, AcceptsASchemesClaimedPartitions) {
  for (const auto& [spec, levels, cores] :
       std::vector<std::tuple<std::string, Level, std::size_t>>{
           {"CA-TPA", 4, 8}, {"FFD", 4, 8}, {"GE-FFD", 2, 4},
           {"DBF-FFD", 2, 4}, {"UD-TPA/ge", 2, 4}}) {
    gen::GenParams params;
    params.num_cores = cores;
    params.num_levels = levels;
    params.num_tasks = levels == 2 ? 48 : 0;
    params.nsu = 0.5;
    const TaskSet ts = gen::generate_trial(params, 11, 0);
    const auto scheme = partition::make_scheme_spec(spec);
    analysis::PlacementEngine engine(ts, cores);
    ASSERT_TRUE(scheme->run_on(engine).success) << spec;
    EXPECT_EQ(verify_partition(ts, cores_of(engine), acceptance_of(spec)), "")
        << spec;
  }
}

TEST(PartitionCheck, CatchesAnOverUtilizedCore) {
  gen::GenParams params;
  params.num_cores = 8;
  params.num_levels = 4;
  params.nsu = 0.6;
  const TaskSet ts = gen::generate_trial(params, 11, 0);
  std::vector<std::vector<std::size_t>> cores(8);
  for (std::size_t i = 0; i < ts.size(); ++i) cores[0].push_back(i);
  EXPECT_NE(verify_partition(ts, cores, Acceptance::kTheorem1), "");

  gen::GenParams dual = params;
  dual.num_cores = 4;
  dual.num_levels = 2;
  dual.num_tasks = 48;
  const TaskSet ts2 = gen::generate_trial(dual, 11, 0);
  std::vector<std::vector<std::size_t>> one_core(4);
  for (std::size_t i = 0; i < ts2.size(); ++i) one_core[0].push_back(i);
  EXPECT_NE(verify_partition(ts2, one_core, Acceptance::kGe), "");
  EXPECT_NE(verify_partition(ts2, one_core, Acceptance::kDbf), "");
}

TEST(PartitionCheck, CatchesMissingAndDuplicatedTasks) {
  using Cores = std::vector<std::vector<std::size_t>>;
  const TaskSet ts({McTask(1, {1, 2}, 50), McTask(2, {1}, 40)}, 2);
  EXPECT_NE(verify_partition(ts, Cores{{0}, {}}, Acceptance::kTheorem1), "");
  EXPECT_NE(verify_partition(ts, Cores{{0, 1}, {1}}, Acceptance::kTheorem1),
            "");
  EXPECT_EQ(verify_partition(ts, Cores{{0}, {1}}, Acceptance::kTheorem1), "");
}

TEST(TailRule, PicksTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(99), 0);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(999), 90);
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(250000), 99);
}

TEST(Quantile, IsNearestRank) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(quantile_sorted(sorted, 0.5), 5);
  EXPECT_EQ(quantile_sorted(sorted, 0.9), 9);
  EXPECT_EQ(quantile_sorted(sorted, 0.99), 10);
}

TEST(LatencySamples, KeepsABoundedUniformSample) {
  LatencySamples samples(5);
  for (std::size_t i = 0; i < kMaxSamples; ++i) {
    samples.add(static_cast<double>(i));
  }
  ASSERT_EQ(samples.values().size(), kMaxSamples);
  EXPECT_EQ(samples.values().back(), static_cast<double>(kMaxSamples - 1));

  const std::size_t offered = 4 * kMaxSamples;
  for (std::size_t i = kMaxSamples; i < offered; ++i) {
    samples.add(static_cast<double>(i));
  }
  ASSERT_EQ(samples.values().size(), kMaxSamples);
  // A uniform sample of 0..offered-1 puts about a quarter of itself in each
  // quarter of the range.
  std::vector<double> sorted(samples.values().begin(), samples.values().end());
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.25, 0.5, 0.75}) {
    EXPECT_NEAR(quantile_sorted(sorted, q) / static_cast<double>(offered), q,
                0.01);
  }
}

TEST(HostGauge, RepeatsTheSameWorkOnEveryReading) {
  HostGauge gauge;
  const double first = gauge.slowdown();
  const std::uint64_t per_reading = gauge.placed();
  const double second = gauge.slowdown();
  EXPECT_GT(per_reading, 0u);
  EXPECT_EQ(gauge.placed(), 2 * per_reading);
  for (const double reading : {first, second}) {
    EXPECT_TRUE(std::isfinite(reading) && reading > 0) << reading;
  }
}

TEST(PeakRss, CountsAResidentBufferExactly) {
  PeakRss rss;
  rss.sample();
  EXPECT_LT(rss.rise_mb(), 0.5);
  constexpr std::size_t kBytes = std::size_t{8} << 20;
  std::vector<char> buffer(kBytes, 1);  // every page written, so resident
  rss.sample();
  EXPECT_GE(rss.rise_mb(), 8.0)
      << "buffer at " << static_cast<void*>(buffer.data());
  EXPECT_LT(rss.rise_mb(), 8.5);
}

TEST(LayerTimes, DivideEachSpanByItsSlowdown) {
  Tracer tracer;
  tracer.set_enabled(true);
  for (int op = 0; op < 2; ++op) {
    tracer.set_op(static_cast<std::uint64_t>(op));
    const Scope outer(tracer, kOpSpan);
    const Scope inner(tracer, "layer");
    const std::int64_t until = now_ns() + 20000;
    while (now_ns() < until) {
    }
  }
  tracer.set_slowdown_from(2, 4.0);  // the second op's two spans
  const auto wall = [&](std::size_t i) {
    return static_cast<double>(tracer.spans()[i].end_ns -
                               tracer.spans()[i].start_ns);
  };
  const Tracer* tracers[] = {&tracer};
  const LayerTimes layers = layer_times(tracers);
  EXPECT_EQ(layers.ops, 2u);
  EXPECT_DOUBLE_EQ(layers.op_total_ns, wall(0) + wall(2) / 4.0);
  EXPECT_DOUBLE_EQ(layers.self_ns.at("layer"), wall(1) + wall(3) / 4.0);
  EXPECT_DOUBLE_EQ(layers.self_ns.at(kOpSpan),
                   (wall(0) - wall(1)) + (wall(2) - wall(3)) / 4.0);
}

TEST(Sanitizer, ReplacesSlashes) {
  EXPECT_EQ(sanitize_scheme("UD-TPA/ge"), "UD-TPA-ge");
  EXPECT_EQ(sanitize_scheme("CA-TPA"), "CA-TPA");
}

/// The declarations of one BENCHMARK.json list.
std::vector<MetricDecl> declared(const std::string& list) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const util::Json doc = util::Json::parse(text.str());
  std::vector<MetricDecl> out;
  for (const util::Json& m : doc.at(list).items()) {
    out.push_back({m.at("name").as_string(), m.at("unit").as_string()});
  }
  return out;
}

TEST(Metrics, MatchBenchmarkJson) {
  EXPECT_EQ(declared("end_to_end"), end_to_end_metrics());
  EXPECT_EQ(declared("per_layer"), layer_metrics());
}

TEST(LayerMetrics, NamesEveryLineUpScheme) {
  std::vector<std::string> names;
  for (const MetricDecl& m : layer_metrics()) names.push_back(m.name);
  for (const SweepWorkload& w : {sweep_paper(), sweep_demand()}) {
    for (const std::string& spec : w.schemes) {
      const std::string key =
          "partition." +
          sanitize_scheme(partition::make_scheme_spec(spec)->name());
      for (const char* suffix : {".us", ".probes", ".ns_per_probe"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), key + suffix),
                  names.end())
            << key << suffix;
      }
    }
  }
}

/// Replays the serve-mix schedule against the daemon's own LRU cache, with
/// the connections interleaved `ratio` : 1, and checks every lookup.
void replay_schedule(std::size_t ratio) {
  using S = ServeSchedule;
  svc::AnalysisCache cache(S::kCacheCapacity);
  const auto result = std::make_shared<const svc::AnalysisResult>();
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  const auto touch = [&](std::size_t set) {
    const std::string key = std::to_string(set);
    const bool hit = cache.lookup(set, key) != nullptr;
    if (!hit) cache.insert(set, key, result);
    return hit;
  };
  for (std::size_t c = 0; c < S::kConnections; ++c) {
    for (std::size_t k = 0; k < S::kHot; ++k) {
      ASSERT_FALSE(touch(S::hot_set(c, k)));
    }
  }
  std::vector<std::uint64_t> next(S::kConnections, 0);
  for (int round = 0; round < 20000; ++round) {
    for (std::size_t c = 0; c < S::kConnections; ++c) {
      const std::size_t steps = c == 0 ? ratio : 1;
      for (std::size_t i = 0; i < steps * 4; ++i) {
        const std::uint64_t op = next[c]++;
        const bool hit = touch(S::set_of(c, op));
        ASSERT_EQ(hit, S::is_hit(op))
            << "connection " << c << " op " << op;
        hits += hit ? 1 : 0;
        ++lookups;
      }
    }
  }
  EXPECT_EQ(static_cast<double>(hits) / static_cast<double>(lookups), 0.75);
}

TEST(ServeSchedule, HitRatioIsExactlyThreeQuarters) {
  replay_schedule(1);
  replay_schedule(3);
  replay_schedule(10);
}

TEST(ServeSchedule, ConnectionsNeverShareSets) {
  using S = ServeSchedule;
  std::vector<int> owner(S::kSets, -1);
  for (std::size_t c = 0; c < S::kConnections; ++c) {
    for (std::uint64_t op = 0; op < 4 * S::kCold; ++op) {
      const std::size_t set = S::set_of(c, op);
      ASSERT_LT(set, S::kSets);
      ASSERT_TRUE(owner[set] == -1 || owner[set] == static_cast<int>(c));
      owner[set] = static_cast<int>(c);
    }
  }
  EXPECT_EQ(std::count(owner.begin(), owner.end(), -1), 0);
}

}  // namespace
}  // namespace mcs::perfbench
