// Replays every corpus file (tests/corpus/*.mcs) through the checker its
// metadata names.  Corpus files are shrunk fuzz reproducers and hand-written
// boundary cases; a failure here means a once-fixed (or long-standing
// boundary) behaviour regressed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mcs/verify/corpus.hpp"
#include "mcs/verify/fuzzer.hpp"

namespace mcs::verify {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(MCS_CORPUS_DIR)) {
    if (entry.path().extension() == ".mcs") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string test_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = std::filesystem::path(info.param).stem().string();
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class CorpusReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusReplayTest, Replays) {
  const CorpusCase c = load_corpus_case(GetParam());
  const CheckResult r = replay(c);
  EXPECT_TRUE(r.ok) << GetParam() << ": " << r.detail
                    << (c.meta.note.empty() ? "" : "\n  note: " + c.meta.note);
}

INSTANTIATE_TEST_SUITE_P(All, CorpusReplayTest,
                         ::testing::ValuesIn(corpus_files()), test_name);

TEST(CorpusTest, HasAtLeastFiveCases) {
  EXPECT_GE(corpus_files().size(), 5u);
}

TEST(CorpusTest, SaveLoadRoundTripsMetadata) {
  const CorpusCase original = load_corpus_case(corpus_files().front());
  const std::string path = ::testing::TempDir() + "corpus_roundtrip.mcs";
  save_corpus_case(path, original);
  const CorpusCase reloaded = load_corpus_case(path);
  EXPECT_EQ(reloaded.meta.target, original.meta.target);
  EXPECT_EQ(reloaded.meta.scheme, original.meta.scheme);
  EXPECT_EQ(reloaded.meta.num_cores, original.meta.num_cores);
  EXPECT_EQ(reloaded.meta.seed, original.meta.seed);
  ASSERT_EQ(reloaded.ts.size(), original.ts.size());
  for (std::size_t i = 0; i < reloaded.ts.size(); ++i) {
    EXPECT_EQ(reloaded.ts[i], original.ts[i]);
  }
  std::filesystem::remove(path);
}

TEST(CorpusTest, RejectsUnknownMetadata) {
  const std::string path = ::testing::TempDir() + "corpus_bad_meta.mcs";
  {
    std::ofstream out(path);
    out << "# fuzz: target=soundness wibble=1\nK 1\ntask 0 10 1\n";
  }
  EXPECT_THROW((void)load_corpus_case(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(FuzzSmokeTest, TrialRunnerIsDeterministic) {
  for (const FuzzTarget target :
       {FuzzTarget::kSoundness, FuzzTarget::kDifferential, FuzzTarget::kIo}) {
    EXPECT_EQ(run_trial(target, 12, 3), run_trial(target, 12, 3));
  }
}

// A check that fails on its first call and passes after it, as a race or a
// timing-dependent check would: the finding's re-check must keep the case
// as found, unshrunk, instead of handing shrink() a predicate that does not
// hold on it, and the report must say so.
TEST(FuzzSmokeTest, FindingThatDoesNotFailAgainIsKeptUnshrunk) {
  const CorpusCase stored = load_corpus_case(corpus_files().front());
  const FuzzCase original{stored.ts, stored.meta.num_cores};
  int calls = 0;
  const FailurePredicate fails_once = [&calls](const FuzzCase&) {
    return calls++ == 0;
  };
  ASSERT_TRUE(fails_once(original));  // the trial's check
  detail::Rechecked kept =
      detail::recheck_then_shrink(original, fails_once, ShrinkOptions{});
  EXPECT_EQ(calls, 2);  // the trial, then the re-check
  EXPECT_FALSE(kept.failed_again);
  EXPECT_EQ(kept.shrunk.minimized.ts.size(), original.ts.size());
  EXPECT_EQ(kept.shrunk.minimized.num_cores, original.num_cores);
  EXPECT_EQ(kept.shrunk.steps, 0u);
  EXPECT_EQ(kept.shrunk.attempts, 0u);

  // A case that fails again is shrunk as before.
  const detail::Rechecked shrunk = detail::recheck_then_shrink(
      original, [](const FuzzCase&) { return true; }, ShrinkOptions{});
  EXPECT_TRUE(shrunk.failed_again);
  EXPECT_GT(shrunk.shrunk.attempts, 0u);

  FuzzReport report;
  report.target = FuzzTarget::kDifferential;
  report.findings.push_back(Finding{7, "flaky failure", std::string{},
                                    std::move(kept.shrunk.minimized),
                                    original.ts.size(), 0, 0, std::string{},
                                    std::string{}, kept.failed_again});
  EXPECT_NE(describe(report).find("did not fail again on re-check"),
            std::string::npos)
      << describe(report);
}

TEST(FuzzSmokeTest, ShortBudgetedRunIsClean) {
  FuzzOptions options;
  options.target = FuzzTarget::kDifferential;
  options.budget_s = 1.0;
  options.seed = 5;
  const FuzzReport report = run_fuzz(options);
  EXPECT_TRUE(report.clean()) << describe(report);
  EXPECT_GT(report.trials, 0u);
}

}  // namespace
}  // namespace mcs::verify
