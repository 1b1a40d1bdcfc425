// Extra experiment E4 (beyond the paper): AMC runtime behaviour as the
// per-job escalation probability rises.  CA-TPA partitions of accepted task
// sets are executed in the EDF-VD/AMC engine; we report mode-switch rates,
// the fraction of time spent above mode 1, dropped-job and suppressed-release
// ratios, and (the validation half) that deadline misses stay at zero for
// every escalation level.
#include <iostream>

#include "mcs/mcs.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(
      argc, argv,
      {{"trials", "accepted task sets to simulate per point (default 150)"},
       {"seed", "base RNG seed (default 1)"},
       {"levels", "criticality levels K (default 2)"},
       {"nsu", "normalized system utilization (default 0.5)"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("bench_runtime_overruns");
    return 0;
  }
  const std::uint64_t trials = cli.get_or("trials", std::uint64_t{150});
  const std::uint64_t seed = cli.get_or("seed", std::uint64_t{1});

  gen::GenParams params = exp::default_gen_params();
  params.num_levels = static_cast<Level>(cli.get_or("levels", std::uint64_t{2}));
  params.num_cores = 4;
  params.nsu = cli.get_or("nsu", 0.5);
  params.num_tasks = 40;
  params.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};

  const partition::CaTpaPartitioner catpa;
  util::Table table({"escalation", "switches/core/100t", "time above mode 1",
                     "dropped ratio", "suppressed ratio", "misses"});

  std::cout << "E4 - AMC runtime behaviour vs escalation probability\n"
            << "(CA-TPA partitions, M=" << params.num_cores
            << ", K=" << params.num_levels << ", NSU=" << params.nsu << ", "
            << trials << " accepted sets per point)\n\n";

  for (double escalation : {0.0, 0.05, 0.1, 0.2, 0.4, 0.8}) {
    util::Welford switches_per_100;
    util::Welford high_mode_share;
    util::Welford dropped_ratio;
    util::Welford suppressed_ratio;
    std::uint64_t misses = 0;
    std::uint64_t accepted = 0;
    for (std::uint64_t trial = 0; accepted < trials && trial < trials * 20;
         ++trial) {
      const TaskSet ts = gen::generate_trial(params, seed, trial);
      const partition::PartitionResult pr = catpa.run(ts, params.num_cores);
      if (!pr.success) continue;
      ++accepted;
      const sim::RandomScenario scenario(seed * 1000 + trial, escalation);
      const sim::SimResult run = simulate(pr.partition, scenario);
      misses += run.misses.size();
      double span = 0.0;
      double above = 0.0;
      for (const sim::CoreStats& c : run.cores) {
        for (std::size_t m = 0; m < c.mode_residency.size(); ++m) {
          span += c.mode_residency[m];
          if (m > 0) above += c.mode_residency[m];
        }
      }
      const double per_core_span = run.horizon;
      switches_per_100.add(
          static_cast<double>(run.total(&sim::CoreStats::mode_switches)) /
          static_cast<double>(run.cores.size()) / per_core_span * 100.0);
      high_mode_share.add(span > 0.0 ? above / span : 0.0);
      const auto released = run.total(&sim::CoreStats::jobs_released);
      const auto dropped = run.total(&sim::CoreStats::jobs_dropped);
      const auto suppressed = run.total(&sim::CoreStats::releases_suppressed);
      if (released > 0) {
        dropped_ratio.add(static_cast<double>(dropped) /
                          static_cast<double>(released));
        suppressed_ratio.add(static_cast<double>(suppressed) /
                             static_cast<double>(released + suppressed));
      }
    }
    table.begin_row();
    table.add_cell(escalation, 2);
    table.add_cell(switches_per_100.mean(), 3);
    table.add_cell(high_mode_share.mean(), 4);
    table.add_cell(dropped_ratio.mean(), 4);
    table.add_cell(suppressed_ratio.mean(), 4);
    table.add_cell(static_cast<std::size_t>(misses));
  }
  table.print(std::cout);
  std::cout << "\n(zero misses across all escalation levels validates the "
               "analysis-runtime contract)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("bench_runtime_overruns",
                             [&] { return run(argc, argv); });
}
