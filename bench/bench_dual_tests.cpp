// Extra experiment E3 (beyond the paper): schedulability-test strength on
// dual-criticality workloads -- the Eq. (4) utilization bound, the Eq. (7)
// EDF-VD test (via FFD), CA-TPA, and the far costlier DBF-based partitioner
// in the spirit of Gu et al. [20].  Probe counts show the complexity gap.
#include <iostream>

#include "mcs/mcs.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(
      argc, argv,
      {{"trials", "task sets per data point (default 200; the DBF probes "
                  "dominate the cost)"},
       {"seed", "base RNG seed (default 1)"},
       {"threads", "worker threads for the whole sweep (default and 0: "
                   "hardware concurrency, which also caps it)"},
       {"csv", "also write results to this CSV file"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("bench_dual_tests");
    return 0;
  }

  exp::RunOptions options;
  options.trials = cli.get_or("trials", std::uint64_t{200});
  options.seed = cli.get_or("seed", std::uint64_t{1});
  options.threads =
      util::resolve_thread_count(cli.get_or("threads", std::uint64_t{0}));

  exp::SweepSpec spec{
      .name = "dual_tests",
      .title = "E3 - dual-criticality schedulability-test strength",
      .x_label = "NSU",
      .axis = exp::Axis::kNsu,
      .values = {exp::kNsuRange.begin(), exp::kNsuRange.end()},
      .base = exp::default_gen_params(),
      .schemes = {"FFD/eq4", "FFD", "CA-TPA", "DBF-FFD"}};
  spec.base.num_levels = 2;
  // Short periods keep the DBF busy-period bounds (and thus its cost)
  // manageable; all schemes see the same workloads.
  spec.base.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};
  spec.base.num_tasks = 40;

  const exp::SweepResult result = run_sweep(
      spec, options, exp::kDefaultAlpha,
      [](std::size_t done, std::size_t total) {
        std::cerr << "[dual_tests] point " << done << "/" << total << " done\n";
      });
  print_figure(std::cout, result, spec.title);
  if (const auto csv = cli.get("csv")) {
    write_csv(*csv, result);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("bench_dual_tests",
                             [&] { return run(argc, argv); });
}
