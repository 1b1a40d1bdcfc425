// Property test over the whole scheme grammar: every spec string in
// partition::registered_scheme_specs() must survive the full pipeline —
// parse into a partitioner, run inside a sweep, and come back out of the
// versioned artifact under exactly its registered name, in line-up order.
// This is what lets ALGORITHMS.md, `mcs_report --list-schemes`, and the
// artifact provenance all key off the same strings.
#include <gtest/gtest.h>

#include <filesystem>

#include "mcs/exp/orchestrator.hpp"
#include "mcs/exp/spec.hpp"
#include "mcs/partition/registry.hpp"

namespace mcs::exp {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() / ("mcs_scheme_roundtrip_" + name)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// A deliberately tiny sweep: the property under test is naming fidelity,
// not statistics.  K = 2 so the GE-gated schemes are runnable.
SweepSpec all_schemes_spec() {
  SweepSpec spec;
  spec.name = "roundtrip";
  spec.title = "scheme grammar round-trip";
  spec.x_label = "NSU";
  spec.axis = Axis::kNsu;
  spec.values = {0.5, 0.7};
  spec.base.num_levels = 2;
  spec.base.num_cores = 2;
  spec.base.num_tasks = 10;
  spec.schemes = partition::registered_scheme_specs();
  return spec;
}

TEST(SchemeRoundTripTest, EveryRegisteredSpecSurvivesRunAndArtifact) {
  const SweepSpec spec = all_schemes_spec();
  const std::vector<std::string>& specs = partition::registered_scheme_specs();
  ASSERT_EQ(spec.schemes, specs);

  ScratchDir dir("run");
  SpecRunOptions options;
  options.trials = 5;
  options.seed = 1;
  options.threads = 1;
  options.artifacts_dir = dir.str();
  options.source = "roundtrip-test";
  const SpecRunResult run = run_spec(spec, options);
  ASSERT_TRUE(run.complete);
  ASSERT_FALSE(run.json_path.empty());

  const std::optional<Artifact> artifact = load_artifact(run.json_path);
  ASSERT_TRUE(artifact.has_value());
  EXPECT_EQ(artifact->spec, "roundtrip");
  EXPECT_EQ(artifact->source, "roundtrip-test");
  EXPECT_EQ(artifact->fingerprint, run.fingerprint);
  ASSERT_EQ(artifact->points.size(), spec.values.size());

  // Naming fidelity: each point reports one aggregate per registered spec,
  // named by the spec string itself, in line-up order.
  for (const PointCheckpoint& point : artifact->points) {
    ASSERT_EQ(point.result.schemes.size(), specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
      EXPECT_EQ(point.result.schemes[s].scheme, specs[s]);
      EXPECT_EQ(point.result.schemes[s].trials, options.trials);
    }
  }
}

}  // namespace
}  // namespace mcs::exp
