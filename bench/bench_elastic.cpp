// Extra experiment E6 (beyond the paper): graceful degradation via elastic
// periods (after Su & Zhu's E-MC model, the paper's reference [31]).
//
// Classic AMC drops all low-criticality service while a core runs above
// mode 1.  With elastic degradation, LO tasks keep releasing at a stretched
// period instead.  This bench measures, as the overrun escalation
// probability rises, the fraction of nominal LO service that survives under
// (a) AMC drop and (b) period stretches of 2x and 4x — with zero deadline
// misses throughout (runs use plain EDF on Eq.(4)-passing workloads, where
// degradation is provably safe; see engine.hpp).
//
// Modes are sticky here (no idle reset): once a core escalates it stays
// degraded, the regime E-MC targets.  Under the paper's idle-reset protocol
// elevated windows are short and dropping costs little; without the reset,
// dropping starves LO tasks for the rest of the run while stretching keeps
// their completion gaps bounded near the stretch factor.
#include <iostream>

#include "mcs/mcs.hpp"

namespace {

using namespace mcs;

/// Fraction of the LO jobs a nominal (non-degraded) run would complete.
double lo_service(const sim::SimResult& run, const TaskSet& ts,
                  double horizon) {
  double nominal = 0.0;
  double completed = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].level() != 1) continue;
    nominal += horizon / ts[i].period();
    completed += static_cast<double>(run.tasks[i].completed);
  }
  return nominal > 0.0 ? completed / nominal : 1.0;
}

/// Worst gap between consecutive completions of any LO task, in units of
/// that task's period -- the starvation bound degraded service exists to
/// control (AMC's drop protocol leaves it unbounded during busy intervals).
double lo_max_starvation(const sim::RecordingTraceSink& trace,
                         const TaskSet& ts, double horizon) {
  std::vector<double> last(ts.size(), 0.0);
  std::vector<double> worst(ts.size(), 0.0);
  for (const sim::TraceEvent& e : trace.events()) {
    if (e.kind != sim::EventKind::kComplete || ts[e.task].level() != 1) {
      continue;
    }
    worst[e.task] = std::max(worst[e.task], e.time - last[e.task]);
    last[e.task] = e.time;
  }
  double overall = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].level() != 1) continue;
    const double gap = std::max(worst[i], horizon - last[i]);
    overall = std::max(overall, gap / ts[i].period());
  }
  return overall;
}

int run(int argc, char** argv) {
  const util::Cli cli(
      argc, argv,
      {{"trials", "Eq.(4)-passing task sets per point (default 100)"},
       {"seed", "base RNG seed (default 1)"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("bench_elastic");
    return 0;
  }
  const std::uint64_t trials = cli.get_or("trials", std::uint64_t{100});
  const std::uint64_t seed = cli.get_or("seed", std::uint64_t{1});

  gen::GenParams params = exp::default_gen_params();
  params.num_levels = 3;
  params.num_cores = 2;
  params.nsu = 0.3;  // keep Eq. (4) satisfiable despite own-level inflation
  params.num_tasks = 16;
  params.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};

  std::cout << "E6 - graceful degradation: LO service retention vs overruns\n"
            << "(plain EDF on Eq.(4)-passing sets; " << trials
            << " sets per point)\n\n";
  util::Table table({"escalation", "AMC drop", "stretch 2x", "stretch 4x",
                     "starve/drop", "starve/2x", "starve/4x", "misses"});

  for (double escalation : {0.1, 0.3, 0.6, 0.9}) {
    util::Welford drop_service;
    util::Welford s2_service;
    util::Welford s4_service;
    util::Welford drop_starve;
    util::Welford s2_starve;
    util::Welford s4_starve;
    std::uint64_t misses = 0;
    std::uint64_t accepted = 0;
    for (std::uint64_t trial = 0; accepted < trials && trial < trials * 30;
         ++trial) {
      const TaskSet ts = gen::generate_trial(params, seed, trial);
      if (!analysis::basic_test(ts.utils())) continue;
      ++accepted;
      Partition partition(ts, params.num_cores);
      // Simple round-robin placement: Eq. (4) holds for the whole set, so
      // it holds per core as well.
      for (std::size_t i = 0; i < ts.size(); ++i) {
        partition.assign(i, i % params.num_cores);
      }
      const sim::RandomScenario scenario(seed * 100 + trial, escalation);
      for (double stretch : {0.0, 2.0, 4.0}) {
        sim::SimConfig config;
        config.use_virtual_deadlines = false;
        config.degraded_period_stretch = stretch;
        config.idle_reset = false;  // sticky elevated modes
        sim::RecordingTraceSink trace;
        const sim::SimResult run =
            simulate(partition, scenario, config, &trace);
        misses += run.misses.size();
        const double service = lo_service(run, ts, run.horizon);
        const double starve = lo_max_starvation(trace, ts, run.horizon);
        if (stretch == 0.0) {
          drop_service.add(service);
          drop_starve.add(starve);
        } else if (stretch == 2.0) {
          s2_service.add(service);
          s2_starve.add(starve);
        } else {
          s4_service.add(service);
          s4_starve.add(starve);
        }
      }
    }
    table.begin_row();
    table.add_cell(escalation, 2);
    table.add_cell(drop_service.mean(), 4);
    table.add_cell(s2_service.mean(), 4);
    table.add_cell(s4_service.mean(), 4);
    table.add_cell(drop_starve.mean(), 2);
    table.add_cell(s2_starve.mean(), 2);
    table.add_cell(s4_starve.mean(), 2);
    table.add_cell(static_cast<std::size_t>(misses));
  }
  table.print(std::cout);
  std::cout << "\n(service: higher is better; starve = worst gap between\n"
               " consecutive completions of a LO task, in periods: lower is\n"
               " better; 'misses' must stay 0)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("bench_elastic", [&] { return run(argc, argv); });
}
