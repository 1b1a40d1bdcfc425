// Golden-partition parity for the competitor schemes added after the seed:
// UD-TPA (all three gates), GE-FFD and DBF-FFD must keep producing the exact
// core assignments, success flags, and probe counts captured when they
// landed.  Catches silent drift in the diff-ordering, the min-key placement,
// and the GE and DBF gates' accept/reject frontiers.
//
// Regenerate only on an intentional semantic change:
//   MCS_COMPETITOR_REGEN=1 ./build/tests/competitor_parity_test
// then commit the rewritten golden alongside the change that explains it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "mcs/gen/taskset_generator.hpp"
#include "mcs/partition/registry.hpp"

namespace mcs::partition {
namespace {

std::vector<std::string> load_golden() {
  std::ifstream in(MCS_COMPETITOR_GOLDEN_PATH);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Must stay in lockstep with the golden file's format and grid.  The GE- and
// DBF-gated schemes only exist at K = 2, so the K = 4 rows cover the
// Theorem-1 and Eq. (4) gates alone.
std::vector<std::string> run_grid() {
  std::vector<std::string> lines;
  const std::uint64_t seeds[] = {1, 2};
  const std::size_t cores[] = {2, 4};
  const double nsus[] = {0.5, 0.7, 0.9};

  char buf[128];
  for (std::uint64_t seed : seeds) {
    for (Level K : {Level{2}, Level{4}}) {
      const std::vector<std::string> specs =
          (K == 2)
              ? std::vector<std::string>{"UD-TPA", "UD-TPA/eq4", "UD-TPA/ge",
                                         "GE-FFD", "DBF-FFD"}
              : std::vector<std::string>{"UD-TPA", "UD-TPA/eq4"};
      for (std::size_t M : cores) {
        for (double nsu : nsus) {
          gen::GenParams params;
          params.num_cores = M;
          params.num_levels = K;
          params.nsu = nsu;
          params.num_tasks = 0;  // draw N ~ U[40,200]
          const TaskSet ts = gen::generate_trial(params, seed, 0);
          for (const auto& spec : specs) {
            const auto scheme = make_scheme_spec(spec);
            const PartitionResult r = scheme->run(ts, M);
            std::snprintf(
                buf, sizeof(buf),
                "seed=%llu K=%u M=%zu nsu=%.1f scheme=%s ok=%d failed=%lld "
                "probes=%zu assign=",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned>(K), M, nsu, scheme->name().c_str(),
                r.success ? 1 : 0,
                r.failed_task ? static_cast<long long>(*r.failed_task) : -1LL,
                r.probes);
            std::string line = buf;
            for (std::size_t i = 0; i < ts.size(); ++i) {
              if (i) line += ',';
              const std::size_t c = r.partition.core_of(i);
              line += (c == kUnassigned) ? "-" : std::to_string(c);
            }
            lines.push_back(std::move(line));
          }
        }
      }
    }
  }
  return lines;
}

TEST(CompetitorParityTest, MatchesCapturedGoldenBitForBit) {
  const std::vector<std::string> actual = run_grid();
  if (std::getenv("MCS_COMPETITOR_REGEN") != nullptr) {
    std::ofstream out(MCS_COMPETITOR_GOLDEN_PATH, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << MCS_COMPETITOR_GOLDEN_PATH;
    for (const auto& line : actual) out << line << '\n';
    GTEST_SKIP() << "regenerated golden at " << MCS_COMPETITOR_GOLDEN_PATH;
  }
  const std::vector<std::string> golden = load_golden();
  ASSERT_FALSE(golden.empty())
      << "golden file missing or empty: " << MCS_COMPETITOR_GOLDEN_PATH;
  ASSERT_EQ(golden.size(), actual.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(golden[i], actual[i]) << "grid entry " << i;
  }
}

}  // namespace
}  // namespace mcs::partition
