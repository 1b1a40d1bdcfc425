// Capacity planning: how many cores does each partitioning scheme need for
// a given workload?  Searches the minimum feasible M per scheme, showing the
// provisioning gap between heuristics — the practical face of the paper's
// schedulability-ratio improvements.
//
//   $ ./examples/min_cores                      # generated workload
//   $ ./examples/min_cores --in workload.mcs    # your own task set
#include <iostream>
#include <optional>

#include "mcs/mcs.hpp"

namespace {

using namespace mcs;

/// Smallest M in [1, limit] for which the scheme succeeds, if any.  The
/// heuristics are not monotone in M in pathological cases, so we scan
/// upward rather than binary-search.
std::optional<std::size_t> min_cores(const partition::Partitioner& scheme,
                                     const TaskSet& ts, std::size_t limit) {
  for (std::size_t m = 1; m <= limit; ++m) {
    if (scheme.run(ts, m).success) return m;
  }
  return std::nullopt;
}

int run(int argc, char** argv) {
  const util::Cli cli(
      argc, argv,
      {{"in", "task-set file (default: generate one)"},
       {"levels", "K for the generated workload (default 4)"},
       {"nsu", "NSU of the generated workload (default 0.6)"},
       {"tasks", "N of the generated workload (default 60)"},
       {"seed", "generator seed (default 1)"},
       {"limit", "maximum core count to try (default 64)"},
       {"alpha", "CA-TPA imbalance threshold (default 0.7)"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("min_cores");
    return 0;
  }

  const auto limit =
      static_cast<std::size_t>(cli.get_or("limit", std::uint64_t{64}));

  const TaskSet ts = [&] {
    if (const auto path = cli.get("in")) return io::load_taskset(*path);
    gen::GenParams params = exp::default_gen_params();
    params.num_levels =
        static_cast<Level>(cli.get_or("levels", std::uint64_t{4}));
    params.nsu = cli.get_or("nsu", 0.6);
    params.num_tasks =
        static_cast<std::size_t>(cli.get_or("tasks", std::uint64_t{60}));
    gen::Rng rng(cli.get_or("seed", std::uint64_t{1}));
    return generate(params, rng);
  }();

  std::cout << "Workload: " << ts.size() << " tasks, K = " << ts.num_levels()
            << ", raw level-1 utilization = "
            << util::format_double(ts.raw_level1_util(), 3)
            << ", own-level utilization = "
            << util::format_double(ts.utils().own_level_sum(), 3) << "\n\n";

  util::Table table({"scheme", "min cores", "U_avg at min", "Lambda at min"});
  for (const auto& scheme : partition::paper_schemes(cli.get_or("alpha", 0.7))) {
    table.begin_row();
    table.add_cell(scheme->name());
    const std::optional<std::size_t> m = min_cores(*scheme, ts, limit);
    if (!m) {
      table.add_cell(std::string("> ") + std::to_string(limit));
      table.add_cell(std::string("-"));
      table.add_cell(std::string("-"));
      continue;
    }
    table.add_cell(*m);
    const partition::PartitionResult r = scheme->run(ts, *m);
    const analysis::PartitionMetrics metrics =
        analysis::partition_metrics(r.partition);
    table.add_cell(metrics.u_avg, 4);
    table.add_cell(metrics.imbalance, 4);
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("min_cores", [&] { return run(argc, argv); });
}
