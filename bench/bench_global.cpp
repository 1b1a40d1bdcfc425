// Extra experiment E5 (beyond the paper): partitioned vs global scheduling,
// the empirical methodology of Bastoni et al. that the paper cites when
// motivating partitioned scheduling.  For dual-criticality workloads we
// report, per NSU point:
//
//   * CA-TPA acceptance ratio (analysis-backed; accepted partitions are
//     adversarially simulated and their observed miss ratio printed — it
//     must be 0),
//   * the fraction of *all* sets that survive global EDF-VD simulation
//     without a miss under the same adversarial scenarios (global has no
//     comparable acceptance test, so survival is measured, not proven),
//   * GFB acceptance of the level-1 workload as a reference point.
#include <iostream>

#include "mcs/analysis/global.hpp"
#include "mcs/mcs.hpp"
#include "mcs/sim/global_engine.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(
      argc, argv,
      {{"trials", "task sets per data point (default 150; each set is "
                  "simulated under three scenarios)"},
       {"seed", "base RNG seed (default 1)"},
       {"cores", "number of cores (default 4)"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("bench_global");
    return 0;
  }
  const std::uint64_t trials = cli.get_or("trials", std::uint64_t{150});
  const std::uint64_t seed = cli.get_or("seed", std::uint64_t{1});

  gen::GenParams params = exp::default_gen_params();
  params.num_levels = 2;
  params.num_cores =
      static_cast<std::size_t>(cli.get_or("cores", std::uint64_t{4}));
  params.num_tasks = 8 * params.num_cores;
  params.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};

  const partition::CaTpaPartitioner catpa;
  util::Table table({"NSU", "CA-TPA accept", "CA-TPA sim-miss",
                     "global EDF-VD survive", "GFB(level-1) accept"});

  std::cout << "E5 - partitioned (CA-TPA) vs global EDF-VD, K = 2, M = "
            << params.num_cores << ", " << trials << " sets/point\n\n";

  // Extend past the paper's range: the interesting region for global
  // scheduling is where overload makes it actually miss.
  for (double nsu : {0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    params.nsu = nsu;
    std::uint64_t accepted = 0;
    std::uint64_t accepted_missed = 0;
    std::uint64_t global_survive = 0;
    std::uint64_t gfb_ok = 0;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      const TaskSet ts = gen::generate_trial(params, seed, trial);
      if (analysis::gfb_test(ts, params.num_cores)) ++gfb_ok;

      const auto miss_under_any = [&](auto&& run) {
        if (run(sim::FixedLevelScenario(1)).missed_deadline()) return true;
        if (run(sim::FixedLevelScenario(2)).missed_deadline()) return true;
        return run(sim::RandomScenario(trial * 3 + 1, 0.3)).missed_deadline();
      };

      const partition::PartitionResult pr = catpa.run(ts, params.num_cores);
      if (pr.success) {
        ++accepted;
        if (miss_under_any([&](const auto& scenario) {
              return simulate(pr.partition, scenario);
            })) {
          ++accepted_missed;
        }
      }
      if (!miss_under_any([&](const auto& scenario) {
            return simulate_global(ts, params.num_cores, scenario);
          })) {
        ++global_survive;
      }
    }
    const auto ratio = [&](std::uint64_t n) {
      return static_cast<double>(n) / static_cast<double>(trials);
    };
    table.begin_row();
    table.add_cell(nsu, 2);
    table.add_cell(ratio(accepted), 4);
    table.add_cell(accepted == 0
                       ? 0.0
                       : static_cast<double>(accepted_missed) /
                             static_cast<double>(accepted),
                   4);
    table.add_cell(ratio(global_survive), 4);
    table.add_cell(ratio(gfb_ok), 4);
  }
  table.print(std::cout);
  std::cout << "\n(partitioned acceptance is a guarantee -- the sim-miss "
               "column must be 0;\n global survival is only an observation "
               "over three scenarios per set)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("bench_global", [&] { return run(argc, argv); });
}
