// General-purpose sweep driver: run any builtin experiment spec (or a
// single custom point) from the command line without writing code.
//
//   $ ./examples/sweep_cli --figure 1 --trials 1000
//   $ ./examples/sweep_cli --figure a3 --trials 50000 --csv a3.csv
//   $ ./examples/sweep_cli --point --nsu 0.7 --cores 16 --levels 3
#include <iostream>

#include "mcs/mcs.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(
      argc, argv,
      {{"figure", "spec to run: 1-5 or a name (fig1..fig5, a1..a4, h1, h2)"},
       {"point", "run a single point instead of a figure sweep"},
       {"trials", "task sets per data point (default 2000; paper: 50000)"},
       {"seed", "base RNG seed (default 1)"},
       {"threads",
        "worker threads for the whole sweep (default and 0: hardware "
        "concurrency, which also caps it; results are bit-identical for "
        "any count)"},
       {"csv", "also write results to this CSV file"},
       {"cores", "M for --point (default 8)"},
       {"levels", "K for --point (default 4)"},
       {"nsu", "NSU for --point (default 0.6)"},
       {"ifc", "IFC for --point (default 0.4)"},
       {"alpha", "CA-TPA imbalance threshold (default 0.7)"},
       {"tasks", "fixed N for --point (default: N ~ U{40..200})"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("sweep_cli");
    return 0;
  }

  exp::RunOptions options;
  options.trials = cli.get_or("trials", exp::kDefaultTrials);
  options.seed = cli.get_or("seed", std::uint64_t{1});
  options.threads =
      util::resolve_thread_count(cli.get_or("threads", std::uint64_t{0}));
  const double alpha = cli.get_or("alpha", exp::kDefaultAlpha);

  if (cli.has("point")) {
    gen::GenParams params = exp::default_gen_params();
    params.num_cores =
        static_cast<std::size_t>(cli.get_or("cores", std::uint64_t{8}));
    params.num_levels =
        static_cast<Level>(cli.get_or("levels", std::uint64_t{4}));
    params.nsu = cli.get_or("nsu", exp::kDefaultNsu);
    params.ifc = cli.get_or("ifc", exp::kDefaultIfc);
    params.num_tasks =
        static_cast<std::size_t>(cli.get_or("tasks", std::uint64_t{0}));
    const auto schemes = partition::paper_schemes(alpha);
    const exp::PointResult pt = run_point(params, schemes, options, params.nsu);
    util::Table table(
        {"scheme", "ratio", "U_sys", "U_avg", "Lambda", "probes"});
    for (const exp::SchemeAggregate& agg : pt.schemes) {
      table.begin_row();
      table.add_cell(agg.scheme);
      table.add_cell(agg.ratio(), 4);
      table.add_cell(agg.u_sys.mean(), 4);
      table.add_cell(agg.u_avg.mean(), 4);
      table.add_cell(agg.imbalance.mean(), 4);
      table.add_cell(agg.probes.mean(), 1);
    }
    table.print(std::cout);
    return 0;
  }

  // Accept bare figure numbers ("--figure 4") as shorthand for "fig4";
  // everything else resolves through the spec registry.
  std::string name = cli.get_or("figure", std::string("1"));
  if (name.size() == 1 && name[0] >= '1' && name[0] <= '9') {
    name = "fig" + name;
  }
  const exp::SweepSpec* spec = exp::find_spec(name);
  if (spec == nullptr) {
    std::cerr << "unknown spec '" << name << "' (expected one of "
              << exp::spec_names() << ")\n";
    return 1;
  }

  const exp::SweepResult result = run_sweep(
      to_sweep(*spec, alpha), options, [](std::size_t done, std::size_t total) {
        std::cerr << "point " << done << "/" << total << " done\n";
      });
  print_figure(std::cout, result, spec->title);
  if (const auto csv = cli.get("csv")) {
    write_csv(*csv, result);
    std::cout << "\nCSV written to " << *csv << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("sweep_cli", [&] { return run(argc, argv); });
}
