#include "mcs/exp/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcs/exp/orchestrator.hpp"
#include "mcs/obs/metrics.hpp"

namespace mcs::exp {
namespace {

namespace fs = std::filesystem;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() / ("mcs_checkpoint_test_" + name)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

TEST(HexDoubleTest, RoundTripsExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           0.1,
                           1.0 / 3.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (const double v : values) {
    const std::string hex = hex_double(v);
    EXPECT_EQ(hex.size(), 17u);
    EXPECT_EQ(hex[0], 'x');
    EXPECT_TRUE(same_bits(unhex_double(hex), v)) << hex;
  }
}

TEST(HexDoubleTest, RejectsMalformedInput) {
  EXPECT_THROW((void)unhex_double(""), std::runtime_error);
  EXPECT_THROW((void)unhex_double("3ff0000000000000"), std::runtime_error);
  EXPECT_THROW((void)unhex_double("xzff000000000000"), std::runtime_error);
  EXPECT_THROW((void)unhex_double("x3ff"), std::runtime_error);
}

TEST(WelfordJsonTest, RoundTripsExactly) {
  util::Welford w;
  for (int i = 0; i < 37; ++i) w.add(std::sin(i) * 7.3);
  const util::Welford back = welford_from_json(welford_to_json(w));
  EXPECT_EQ(back.count(), w.count());
  EXPECT_TRUE(same_bits(back.mean(), w.mean()));
  EXPECT_TRUE(same_bits(back.m2(), w.m2()));
  EXPECT_TRUE(same_bits(back.raw_min(), w.raw_min()));
  EXPECT_TRUE(same_bits(back.raw_max(), w.raw_max()));
}

TEST(WelfordJsonTest, EmptyAccumulatorRoundTrips) {
  const util::Welford back = welford_from_json(welford_to_json({}));
  EXPECT_EQ(back.count(), 0u);
  EXPECT_TRUE(std::isinf(back.raw_min()));
  EXPECT_TRUE(std::isinf(back.raw_max()));
  // Adding after restore behaves like a fresh accumulator.
  util::Welford fresh = back;
  fresh.add(2.0);
  EXPECT_TRUE(same_bits(fresh.min(), 2.0));
}

TEST(PointCheckpointTest, JsonRoundTrip) {
  PointCheckpoint point;
  point.index = 3;
  point.result.x = 0.6;
  SchemeAggregate agg;
  agg.scheme = "CA-TPA";
  agg.trials = 100;
  agg.schedulable = 37;
  agg.u_sys.add(0.91);
  agg.u_sys.add(0.97);
  point.result.schemes.push_back(agg);
  point.counters["placement.probes"] = 12345;

  const PointCheckpoint back = point_from_json(point_to_json(point));
  EXPECT_EQ(back.index, 3u);
  EXPECT_TRUE(same_bits(back.result.x, 0.6));
  ASSERT_EQ(back.result.schemes.size(), 1u);
  EXPECT_EQ(back.result.schemes[0].scheme, "CA-TPA");
  EXPECT_EQ(back.result.schemes[0].schedulable, 37u);
  EXPECT_TRUE(
      same_bits(back.result.schemes[0].u_sys.mean(), agg.u_sys.mean()));
  EXPECT_EQ(back.counters.at("placement.probes"), 12345u);
}

SpecRunOptions tiny_options(const std::string& dir) {
  SpecRunOptions options;
  options.trials = 20;
  options.seed = 1;
  options.threads = 2;
  options.artifacts_dir = dir;
  return options;
}

TEST(ResumeTest, InterruptedSweepResumesBitIdentically) {
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir full_dir("full");
  ScratchDir resumed_dir("resumed");

  // Uninterrupted reference run.
  const SpecRunResult full = run_spec(spec, tiny_options(full_dir.str()));
  ASSERT_TRUE(full.complete);

  // Kill the sweep after 2 of 5 points...
  SpecRunOptions interrupted = tiny_options(resumed_dir.str());
  interrupted.stop_after_points = 2;
  const SpecRunResult partial = run_spec(spec, interrupted);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.result.points.size(), 2u);
  EXPECT_TRUE(fs::exists(partial.checkpoint_path));
  EXPECT_TRUE(partial.json_path.empty());

  // ...then resume to completion.
  const SpecRunResult resumed = run_spec(spec, tiny_options(resumed_dir.str()));
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_points, 2u);

  // Artifacts are byte-identical to the uninterrupted run's.
  EXPECT_EQ(read_file(full.json_path), read_file(resumed.json_path));
  EXPECT_EQ(read_file(full.csv_path), read_file(resumed.csv_path));
  // The checkpoint is removed once artifacts exist.
  EXPECT_FALSE(fs::exists(resumed.checkpoint_path));
}

TEST(ResumeTest, TruncatedTrailingLineIsTolerated) {
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir dir("truncated");

  SpecRunOptions interrupted = tiny_options(dir.str());
  interrupted.stop_after_points = 2;
  const SpecRunResult partial = run_spec(spec, interrupted);
  ASSERT_FALSE(partial.complete);

  // Simulate a kill mid-write: a half-flushed point record.
  {
    std::ofstream out(partial.checkpoint_path, std::ios::app);
    out << "{\"kind\":\"point\",\"index\":2,\"x\":\"x3fe33333";
  }

  const SpecRunResult resumed = run_spec(spec, tiny_options(dir.str()));
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_points, 2u);  // the torn point reran

  ScratchDir full_dir("truncated_ref");
  const SpecRunResult full = run_spec(spec, tiny_options(full_dir.str()));
  EXPECT_EQ(read_file(full.json_path), read_file(resumed.json_path));
}

TEST(ResumeTest, ResumeAfterTornLineKeepsLaterPoints) {
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir dir("torn_resume");

  SpecRunOptions interrupted = tiny_options(dir.str());
  interrupted.stop_after_points = 2;
  const SpecRunResult first = run_spec(spec, interrupted);
  ASSERT_FALSE(first.complete);
  {
    std::ofstream out(first.checkpoint_path, std::ios::app);
    out << "{\"kind\":\"point\",\"index\":2,\"x\":\"x3fe33333";
  }

  // A second interrupted run restores points 0-1 and appends points 2-3;
  // the torn record must not swallow point 2's line.
  const SpecRunResult second = run_spec(spec, interrupted);
  ASSERT_FALSE(second.complete);
  EXPECT_EQ(second.resumed_points, 2u);
  EXPECT_EQ(second.result.points.size(), 4u);

  const SpecRunResult resumed = run_spec(spec, tiny_options(dir.str()));
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_points, 4u);

  ScratchDir full_dir("torn_resume_ref");
  const SpecRunResult full = run_spec(spec, tiny_options(full_dir.str()));
  EXPECT_EQ(read_file(full.json_path), read_file(resumed.json_path));
  EXPECT_EQ(read_file(full.csv_path), read_file(resumed.csv_path));
}

TEST(ResumeTest, ReversedCheckpointRestoresIdenticalArtifacts) {
  // Points are appended in completion order, which workers may permute.
  // Worst case: every point record in reverse index order.
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir in_order_dir("inorder");
  ScratchDir reversed_dir("reversed");
  SpecRunOptions options = tiny_options(in_order_dir.str());
  options.threads = 1;  // points then complete, and append, in index order
  options.keep_checkpoint = true;
  const SpecRunResult run = run_spec(spec, options);
  ASSERT_TRUE(run.complete);

  std::ifstream in(run.checkpoint_path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  std::vector<std::string> records;
  for (std::string line; std::getline(in, line);) records.push_back(line);
  ASSERT_EQ(records.size(), run.result.points.size());

  const SpecRunOptions restore = tiny_options(reversed_dir.str());
  {
    std::ofstream out(checkpoint_path_for(restore, spec));
    out << header << '\n';
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      out << *it << '\n';
    }
  }
  const SpecRunResult restored = run_spec(spec, restore);
  ASSERT_TRUE(restored.complete);
  EXPECT_EQ(restored.resumed_points, records.size());
  EXPECT_EQ(read_file(run.json_path), read_file(restored.json_path));
  EXPECT_EQ(read_file(run.csv_path), read_file(restored.csv_path));
}

TEST(ResumeTest, FingerprintMismatchDiscardsCheckpoint) {
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir dir("mismatch");

  SpecRunOptions interrupted = tiny_options(dir.str());
  interrupted.stop_after_points = 2;
  ASSERT_FALSE(run_spec(spec, interrupted).complete);

  // Different seed -> different fingerprint -> checkpoint must not be used.
  SpecRunOptions other_seed = tiny_options(dir.str());
  other_seed.seed = 99;
  const SpecRunResult fresh = run_spec(spec, other_seed);
  EXPECT_EQ(fresh.resumed_points, 0u);
  ASSERT_TRUE(fresh.complete);
}

TEST(ResumeTest, NoResumeFlagStartsFresh) {
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir dir("noresume");

  SpecRunOptions interrupted = tiny_options(dir.str());
  interrupted.stop_after_points = 2;
  ASSERT_FALSE(run_spec(spec, interrupted).complete);

  SpecRunOptions no_resume = tiny_options(dir.str());
  no_resume.resume = false;
  const SpecRunResult fresh = run_spec(spec, no_resume);
  EXPECT_EQ(fresh.resumed_points, 0u);
  EXPECT_TRUE(fresh.complete);
}

TEST(ResumeTest, KeepCheckpointOptionPreservesFile) {
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir dir("keep");
  SpecRunOptions options = tiny_options(dir.str());
  options.keep_checkpoint = true;
  const SpecRunResult run = run_spec(spec, options);
  ASSERT_TRUE(run.complete);
  EXPECT_TRUE(fs::exists(run.checkpoint_path));

  // A rerun resumes every point and rewrites identical artifacts.
  const SpecRunResult rerun = run_spec(spec, options);
  EXPECT_EQ(rerun.resumed_points, run.result.points.size());
  EXPECT_EQ(read_file(run.json_path), read_file(rerun.json_path));
}

TEST(ResumeTest, ThreadCountDoesNotChangeArtifacts) {
  const SweepSpec& spec = *find_spec("fig3");  // shared-workload path
  ScratchDir one("threads1");
  ScratchDir many("threads4");
  SpecRunOptions opt1 = tiny_options(one.str());
  opt1.threads = 1;
  SpecRunOptions opt4 = tiny_options(many.str());
  opt4.threads = 4;
  const SpecRunResult r1 = run_spec(spec, opt1);
  const SpecRunResult r4 = run_spec(spec, opt4);
  ASSERT_TRUE(r1.complete);
  ASSERT_TRUE(r4.complete);
  EXPECT_EQ(read_file(r1.json_path), read_file(r4.json_path));
}

// run_spec at one worker against several.  The suite keeps the name it had
// when a separate svc executor ran specs in parallel; run_spec now runs every
// worker count through the one scheduler, run_points.
TEST(SvcExecutorTest, ParallelArtifactsAreByteIdenticalToSequential) {
  // 70 trials: two chunks per point, the second partial, so one point's
  // chunks (and their metric captures) land on different workers.
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir one_dir("workers1");
  ScratchDir four_dir("workers4");
  SpecRunOptions one = tiny_options(one_dir.str());
  one.trials = 70;
  one.threads = 1;
  SpecRunOptions four = tiny_options(four_dir.str());
  four.trials = 70;
  four.threads = 4;

  const obs::MetricsSnapshot before = obs::registry().snapshot();
  const SpecRunResult r1 = run_spec(spec, one);
  const obs::MetricsSnapshot after = obs::registry().snapshot();
  const SpecRunResult r4 = run_spec(spec, four);
  ASSERT_TRUE(r1.complete);
  ASSERT_TRUE(r4.complete);
  EXPECT_EQ(read_file(r1.json_path), read_file(r4.json_path));
  EXPECT_EQ(read_file(r1.csv_path), read_file(r4.csv_path));
  ASSERT_EQ(r1.point_counters.size(), r4.point_counters.size());
  for (std::size_t i = 0; i < r1.point_counters.size(); ++i) {
    EXPECT_EQ(r1.point_counters[i], r4.point_counters[i]) << "point " << i;
  }

  // The per-point captures add up to what the registry saw over the run.
  std::map<std::string, std::uint64_t> summed;
  for (const auto& counters : r1.point_counters) {
    for (const auto& [name, value] : counters) {
      const bool percentile = name.ends_with(".p50") ||
                              name.ends_with(".p90") || name.ends_with(".p99");
      if (!percentile) summed[name] += value;
    }
  }
  ASSERT_GT(summed.count("placement.probes"), 0u);
  EXPECT_EQ(summed, obs::counter_deltas(before, after));
}

TEST(SvcExecutorTest, JobsOneUsesSameSchedulerAndMatches) {
  // run_spec and run_sweep both hand their points to run_points; at one
  // worker the checkpointed run restores exactly what run_sweep computes.
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir dir("jobs_one");
  SpecRunOptions options = tiny_options(dir.str());
  options.trials = 70;
  options.threads = 1;
  const SpecRunResult run = run_spec(spec, options);
  ASSERT_TRUE(run.complete);
  const SweepResult swept =
      run_sweep(spec, RunOptions{.trials = 70, .seed = options.seed,
                                 .threads = 1},
                options.alpha);

  ASSERT_EQ(run.result.points.size(), swept.points.size());
  for (std::size_t p = 0; p < swept.points.size(); ++p) {
    const PointResult& a = run.result.points[p];
    const PointResult& b = swept.points[p];
    EXPECT_TRUE(same_bits(a.x, b.x)) << "point " << p;
    ASSERT_EQ(a.schemes.size(), b.schemes.size());
    for (std::size_t s = 0; s < a.schemes.size(); ++s) {
      EXPECT_EQ(a.schemes[s].scheme, b.schemes[s].scheme);
      EXPECT_EQ(a.schemes[s].trials, 70u);
      EXPECT_EQ(a.schemes[s].schedulable, b.schemes[s].schedulable);
      EXPECT_TRUE(
          same_bits(a.schemes[s].u_sys.mean(), b.schemes[s].u_sys.mean()));
      EXPECT_TRUE(same_bits(a.schemes[s].u_sys.m2(), b.schemes[s].u_sys.m2()));
      EXPECT_TRUE(same_bits(a.schemes[s].imbalance.mean(),
                            b.schemes[s].imbalance.mean()));
      EXPECT_TRUE(
          same_bits(a.schemes[s].probes.mean(), b.schemes[s].probes.mean()));
    }
  }
}

/// Interrupts fig1 after 3 points at `first` workers, finishes it at `then`
/// workers and expects the artifacts of an uninterrupted run.  70 trials: two
/// chunks per point, so every worker count above 1 splits points.
void expect_resume_across_workers(std::size_t first, std::size_t then) {
  const SweepSpec& spec = *find_spec("fig1");
  const std::string tag =
      "cross_" + std::to_string(first) + "_" + std::to_string(then);
  ScratchDir full_dir(tag + "_full");
  SpecRunOptions full_options = tiny_options(full_dir.str());
  full_options.trials = 70;
  const SpecRunResult full = run_spec(spec, full_options);
  ASSERT_TRUE(full.complete);

  ScratchDir dir(tag + "_resumed");
  SpecRunOptions interrupted = tiny_options(dir.str());
  interrupted.trials = 70;
  interrupted.threads = first;
  interrupted.stop_after_points = 3;
  ASSERT_FALSE(run_spec(spec, interrupted).complete);

  SpecRunOptions finish = interrupted;
  finish.threads = then;
  finish.stop_after_points = 0;
  const SpecRunResult finished = run_spec(spec, finish);
  ASSERT_TRUE(finished.complete);
  EXPECT_EQ(finished.resumed_points, 3u);
  EXPECT_EQ(read_file(full.json_path), read_file(finished.json_path));
  EXPECT_EQ(read_file(full.csv_path), read_file(finished.csv_path));
}

TEST(SvcExecutorTest, ParallelResumesSequentialCheckpoint) {
  expect_resume_across_workers(1, 4);
}

TEST(SvcExecutorTest, SequentialResumesParallelCheckpoint) {
  expect_resume_across_workers(4, 1);
}

TEST(SpecSchedulerTest, ZeroTrialsStillCompletesEveryPoint) {
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir dir("zero_trials");
  SpecRunOptions options = tiny_options(dir.str());
  options.trials = 0;
  const SpecRunResult run = run_spec(spec, options);
  ASSERT_TRUE(run.complete);
  EXPECT_EQ(run.result.points.size(), kNsuRange.size());
  for (const PointResult& point : run.result.points) {
    ASSERT_FALSE(point.schemes.empty());
    for (const SchemeAggregate& agg : point.schemes) {
      EXPECT_EQ(agg.trials, 0u) << agg.scheme;
    }
  }
  EXPECT_TRUE(fs::exists(run.json_path));
  EXPECT_TRUE(fs::exists(run.csv_path));
}

TEST(ArtifactTest, UnwritableArtifactThrowsAndKeepsCheckpoint) {
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir dir("unwritable");
  const SpecRunOptions options = tiny_options(dir.str());
  const std::string blocked = dir.str() + "/fig1.json";
  fs::create_directories(blocked);  // a directory where the artifact goes

  EXPECT_THROW((void)run_spec(spec, options), std::runtime_error);
  EXPECT_TRUE(fs::exists(checkpoint_path_for(options, spec)));

  fs::remove(blocked);
  const SpecRunResult rerun = run_spec(spec, options);
  ASSERT_TRUE(rerun.complete);
  EXPECT_EQ(rerun.resumed_points, rerun.result.points.size());
  ScratchDir ref_dir("unwritable_ref");
  const SpecRunResult ref = run_spec(spec, tiny_options(ref_dir.str()));
  EXPECT_EQ(read_file(ref.json_path), read_file(rerun.json_path));
}

// A checkpoint whose writes fail must fail the run, not be reported as
// kept: /dev/full accepts the open and fails every write.
TEST(CheckpointWriterTest, FailedWriteThrows) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full here";
  const SweepSpec& spec = *find_spec("fig1");
  ScratchDir dir("dev_full");
  SpecRunOptions options = tiny_options(dir.str());
  options.resume = false;
  options.stop_after_points = 2;
  const std::string checkpoint = checkpoint_path_for(options, spec);
  fs::create_symlink("/dev/full", checkpoint);
  try {
    (void)run_spec(spec, options);
    ADD_FAILURE() << "run_spec reported a checkpoint it never wrote";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot write checkpoint '" + checkpoint + "'");
  }
}

TEST(ArtifactTest, LoadRoundTripsProvenanceAndPoints) {
  const SweepSpec& spec = *find_spec("a3");
  ScratchDir dir("artifact");
  SpecRunOptions options = tiny_options(dir.str());
  options.source = "deadbeef";
  const SpecRunResult run = run_spec(spec, options);
  ASSERT_TRUE(run.complete);

  const std::optional<Artifact> artifact = load_artifact(run.json_path);
  ASSERT_TRUE(artifact.has_value());
  EXPECT_EQ(artifact->spec, "a3");
  EXPECT_EQ(artifact->x_label, "NSU");
  EXPECT_EQ(artifact->trials, 20u);
  EXPECT_EQ(artifact->seed, 1u);
  EXPECT_EQ(artifact->source, "deadbeef");
  EXPECT_EQ(artifact->fingerprint, run.fingerprint);
  ASSERT_EQ(artifact->points.size(), run.result.points.size());
  for (std::size_t i = 0; i < artifact->points.size(); ++i) {
    EXPECT_TRUE(
        same_bits(artifact->points[i].result.x, run.result.points[i].x));
    ASSERT_EQ(artifact->points[i].result.schemes.size(),
              run.result.points[i].schemes.size());
    for (std::size_t s = 0; s < artifact->points[i].result.schemes.size();
         ++s) {
      EXPECT_TRUE(same_bits(artifact->points[i].result.schemes[s].u_sys.m2(),
                            run.result.points[i].schemes[s].u_sys.m2()));
    }
  }

  EXPECT_FALSE(load_artifact(dir.str() + "/nope.json").has_value());
}

}  // namespace
}  // namespace mcs::exp
