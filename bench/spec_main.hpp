// Shared driver for the figure- and ablation-reproduction benches.  Each
// bench binary is a thin wrapper naming one builtin exp::SweepSpec; this
// header resolves the spec, provides the standard CLI
// (--trials/--seed/--threads/--alpha/--csv[/--full]) and renders the four
// panels.  tools/mcs_exp runs the same specs with checkpointing and
// artifact output; the benches stay as zero-setup console views.
#pragma once

#include <filesystem>
#include <iostream>
#include <string>

#include "mcs/mcs.hpp"

namespace mcs::bench {

/// Runs the named builtin spec.  `figure_style` selects the figure-bench
/// interface (--full paper-fidelity flag, cross-sweep summary) over the
/// plain ablation one.
inline int run_spec_bench(int argc, char** argv, const std::string& spec_name,
                          bool figure_style) {
  const exp::SweepSpec* spec = exp::find_spec(spec_name);
  if (spec == nullptr) {
    std::cerr << "unknown spec '" << spec_name << "' (expected one of "
              << exp::spec_names() << ")\n";
    return 1;
  }

  std::map<std::string, std::string> allowed{
      {"trials", "task sets per data point (default 2000)"},
      {"seed", "base RNG seed (default 1)"},
      {"threads", "worker threads for the whole sweep (default and 0: "
                  "hardware concurrency, which also caps it)"},
      {"alpha", "CA-TPA imbalance threshold (default 0.7)"},
      {"csv", "also write results to this CSV file"}};
  if (figure_style) {
    allowed.emplace("full", "paper fidelity: 50000 task sets per point");
  }
  const util::Cli cli(argc, argv, std::move(allowed));
  if (cli.help_requested()) {
    std::cout << cli.usage(spec->title);
    return 0;
  }

  exp::RunOptions options;
  options.trials = (figure_style && cli.has("full"))
                       ? exp::kPaperTrials
                       : cli.get_or("trials", exp::kDefaultTrials);
  options.seed = cli.get_or("seed", std::uint64_t{1});
  options.threads =
      util::resolve_thread_count(cli.get_or("threads", std::uint64_t{0}));
  const double alpha = cli.get_or("alpha", exp::kDefaultAlpha);

  const exp::Sweep sweep = to_sweep(*spec, alpha);
  const exp::SweepResult result = run_sweep(
      sweep, options, [&](std::size_t done, std::size_t total) {
        std::cerr << "[" << spec->title << "] point " << done << "/" << total
                  << " done\n";
      });
  print_figure(std::cout, result, spec->title);
  if (figure_style) {
    std::cout << "\nSummary across the sweep:\n";
    print_summary(std::cout, result);
  }
  if (const auto csv = cli.get("csv")) {
    write_csv(*csv, result);
    std::cout << "CSV written to " << *csv << '\n';
  }
  return 0;
}

/// run_spec_bench behind util::run_main, named after the binary.
inline int spec_main(int argc, char** argv, const std::string& spec_name,
                     bool figure_style = true) {
  const std::string program =
      argc > 0 ? std::filesystem::path(argv[0]).filename().string()
               : spec_name;
  return util::run_main(program, [&] {
    return run_spec_bench(argc, argv, spec_name, figure_style);
  });
}

}  // namespace mcs::bench
