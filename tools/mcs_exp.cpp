// Unified experiment orchestrator CLI.
//
// Runs the builtin experiment specs (the paper's figures fig1..fig5, the
// CA-TPA ablations a1..a4 and the head-to-heads h1/h2) with per-point
// checkpointing and versioned artifact output:
//
//   $ mcs_exp --figure fig1 --trials 2000 --seed 1
//   $ mcs_exp --figure all --out artifacts --commit $(git rev-parse --short HEAD)
//   $ mcs_exp --figure fig3,a1 --trials 500
//
// Each run writes <out>/<spec>.json (exact, bit-reproducible aggregates +
// observability counters) and <out>/<spec>.csv.  An interrupted run leaves
// <out>/<spec>.checkpoint.jsonl behind; re-running the same command resumes
// from it and produces byte-identical artifacts.  tools/mcs_report renders
// the committed docs from these artifacts.
//
// --trace <path> enables span tracing for the whole run and exports one
// Chrome trace-event JSON (Perfetto-loadable) covering every layer:
// exp.point spans from the sweeps, analysis/partitioner spans from the
// placement work, and — because sweep points only run partitioning — a
// short post-sweep "trace probe" that partitions and simulates one
// workload so the engine spans and scheduling instants appear on the same
// timeline.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "mcs/mcs.hpp"

namespace {

std::vector<std::string> parse_spec_list(const std::string& arg) {
  std::vector<std::string> names;
  if (arg == "all") {
    for (const mcs::exp::SweepSpec& spec : mcs::exp::builtin_specs()) {
      names.push_back(spec.name);
    }
    return names;
  }
  std::istringstream in(arg);
  std::string name;
  while (std::getline(in, name, ',')) {
    if (!name.empty()) names.push_back(name);
  }
  return names;
}

/// Emits sim-layer spans into the trace: generates workloads from the
/// spec's first point, partitions them, and simulates the first feasible
/// partition over one hyperperiod with the ObsTraceSink bridge attached.
void run_trace_probe(const mcs::exp::SweepSpec& spec, double alpha,
                     std::uint64_t seed) {
  using namespace mcs;
  static constexpr obs::TraceSite kProbeSite{"exp.trace_probe", "trial"};
  const exp::Sweep sweep = exp::to_sweep(spec, alpha);
  if (sweep.points.empty()) return;
  const exp::SweepPoint& pt = sweep.points.front();
  const partition::PartitionerList schemes =
      pt.make_schemes ? pt.make_schemes() : partition::paper_schemes(alpha);
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    const obs::ScopedSpan span(kProbeSite, trial);
    const TaskSet ts = gen::generate_trial(pt.params, seed, trial);
    for (const auto& scheme : schemes) {
      const partition::PartitionResult result =
          scheme->run(ts, pt.params.num_cores);
      if (!result.success) continue;
      sim::ObsTraceSink sink;
      sim::SimConfig cfg;
      cfg.use_hyperperiod_horizon = true;
      const sim::RandomScenario scenario(gen::derive_seed(seed, trial), 0.1);
      (void)sim::simulate(result.partition, scenario, cfg, &sink);
      return;  // one simulated workload is enough for the timeline
    }
  }
  std::cerr << "mcs_exp: trace probe found no feasible partition in 32 "
               "trials; the trace has no sim-layer spans\n";
}

int run(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(
      argc, argv,
      {{"figure", "spec(s) to run: a name, a comma list, or 'all'"},
       {"list", "list the builtin specs and exit"},
       {"trials", "task sets per data point (default 2000)"},
       {"seed", "base RNG seed (default 1)"},
       {"threads",
        "worker threads for the whole sweep (default and 0: hardware "
        "concurrency, which also caps it; artifacts are byte-identical for "
        "any count)"},
       {"alpha", "CA-TPA imbalance threshold (default 0.7)"},
       {"full", "paper fidelity: 50000 task sets per point"},
       {"out", "artifacts directory (default: artifacts)"},
       {"commit", "provenance string recorded in artifacts"},
       {"no-resume", "ignore existing checkpoints; start fresh"},
       {"no-metrics", "skip observability counter capture"},
       {"stop-after", "stop after N new points (interruption testing)"},
       {"trace",
        "enable span tracing and export a Chrome/Perfetto trace to this "
        "path"},
       {"quiet", "suppress the console panels"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("mcs_exp");
    return 0;
  }
  if (cli.has("list")) {
    for (const exp::SweepSpec& spec : exp::builtin_specs()) {
      std::cout << spec.name << "\t" << spec.title << '\n';
    }
    return 0;
  }

  exp::SpecRunOptions options;
  options.trials = cli.has("full") ? exp::kPaperTrials
                                   : cli.get_or("trials", exp::kDefaultTrials);
  options.seed = cli.get_or("seed", std::uint64_t{1});
  options.threads =
      util::resolve_thread_count(cli.get_or("threads", std::uint64_t{0}));
  options.alpha = cli.get_or("alpha", exp::kDefaultAlpha);
  options.artifacts_dir = cli.get_or("out", std::string("artifacts"));
  options.resume = !cli.has("no-resume");
  options.collect_metrics = !cli.has("no-metrics");
  options.stop_after_points =
      static_cast<std::size_t>(cli.get_or("stop-after", std::uint64_t{0}));
  options.source = cli.get_or("commit", std::string());

  const std::vector<std::string> names =
      parse_spec_list(cli.get_or("figure", std::string("all")));
  if (names.empty()) {
    std::cerr << "mcs_exp: no specs selected (builtin: " << exp::spec_names()
              << ")\n";
    return 1;
  }

  const std::optional<std::string> trace_path = cli.get("trace");
  std::optional<obs::TraceEnabledGuard> trace_guard;
  if (trace_path) {
    obs::reset_trace();
    trace_guard.emplace(true);
  }
  const exp::SweepSpec* traced_spec = nullptr;

  for (const std::string& name : names) {
    const exp::SweepSpec* spec = exp::find_spec(name);
    if (spec == nullptr) {
      std::cerr << "mcs_exp: unknown spec '" << name << "' (builtin: "
                << exp::spec_names() << ")\n";
      return 1;
    }
    if (traced_spec == nullptr) traced_spec = spec;

    exp::SpecRunOptions run_options = options;
    run_options.progress = [&](std::size_t done, std::size_t total) {
      std::cerr << "[" << spec->name << "] point " << done << "/" << total
                << " done\n";
    };
    exp::SpecRunResult run;
    try {
      run = run_spec(*spec, run_options);
    } catch (const std::exception& e) {
      std::cerr << "mcs_exp: " << e.what() << '\n';
      return 1;
    }

    if (run.resumed_points > 0) {
      std::cerr << "[" << spec->name << "] resumed " << run.resumed_points
                << " point(s) from " << run.checkpoint_path << '\n';
    }
    if (!run.complete) {
      std::cerr << "[" << spec->name << "] interrupted after "
                << run.result.points.size() << " point(s); checkpoint kept at "
                << run.checkpoint_path << '\n';
      return 2;
    }
    if (!cli.has("quiet")) {
      print_figure(std::cout, run.result, spec->title);
      std::cout << '\n';
    }
    std::cerr << "[" << spec->name << "] artifacts: " << run.json_path << ", "
              << run.csv_path << '\n';
  }

  if (trace_path) {
    if (traced_spec != nullptr) {
      // The probe floods its ring with thousands of per-event sim instants;
      // running it on its own thread gives it its own ring (and its own
      // Perfetto track) instead of wrapping the main ring and evicting the
      // sweep's exp/analysis spans.  Joined before collection, so the
      // quiescence contract holds.
      std::thread probe([&] {
        run_trace_probe(*traced_spec, options.alpha, options.seed);
      });
      probe.join();
    }
    std::ofstream out(*trace_path);
    if (!out) {
      std::cerr << "mcs_exp: cannot write trace " << *trace_path << '\n';
      return 1;
    }
    out << obs::chrome_trace_json(obs::collect_trace()).dump() << '\n';
    std::cerr << "mcs_exp: wrote trace " << *trace_path << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("mcs_exp", [&] { return run(argc, argv); });
}
