// Extra experiment E2 (beyond the paper): partitioned fixed-priority AMC
// (Kelly et al. [22]-style, AMC-rtb per core) against partitioned EDF-VD
// (CA-TPA and FFD with the Theorem-1 test) on dual-criticality workloads.
// The paper's premise -- EDF-VD-based partitioning accepts more task sets
// than fixed-priority approaches -- is quantified here.
#include <iostream>

#include "mcs/mcs.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(
      argc, argv,
      {{"trials", "task sets per data point (default 500; FP probes are "
                  "response-time analyses, so this bench is slower)"},
       {"seed", "base RNG seed (default 1)"},
       {"threads", "worker threads for the whole sweep (default and 0: "
                   "hardware concurrency, which also caps it)"},
       {"csv", "also write results to this CSV file"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("bench_fp_vs_edfvd");
    return 0;
  }

  exp::RunOptions options;
  options.trials = cli.get_or("trials", std::uint64_t{500});
  options.seed = cli.get_or("seed", std::uint64_t{1});
  options.threads =
      util::resolve_thread_count(cli.get_or("threads", std::uint64_t{0}));

  exp::SweepSpec spec{
      .name = "fp_vs_edfvd",
      .title = "E2 - partitioned FP-AMC vs partitioned EDF-VD (K = 2)",
      .x_label = "NSU",
      .axis = exp::Axis::kNsu,
      .values = {exp::kNsuRange.begin(), exp::kNsuRange.end()},
      .base = exp::default_gen_params(),
      .schemes = {"FP-AMC", "FP-AMC/WF", "FFD", "CA-TPA"}};
  spec.base.num_levels = 2;  // AMC-rtb is dual-criticality

  const exp::SweepResult result = run_sweep(
      spec, options, exp::kDefaultAlpha,
      [](std::size_t done, std::size_t total) {
        std::cerr << "[fp_vs_edfvd] point " << done << "/" << total << " done\n";
      });
  print_figure(std::cout, result, spec.title);
  if (const auto csv = cli.get("csv")) {
    write_csv(*csv, result);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("bench_fp_vs_edfvd",
                             [&] { return run(argc, argv); });
}
