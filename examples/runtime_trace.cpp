// Runtime trace demo: watch EDF-VD + AMC react to an execution-time overrun.
//
// A two-core dual-criticality system is partitioned with CA-TPA and driven
// by a scenario in which high-criticality jobs exceed their low-criticality
// budgets.  Every engine event (releases, virtual deadlines, the mode
// switch, job drops, suppressed releases, the idle reset) streams to stdout.
//
//   $ ./examples/runtime_trace [--horizon T] [--escalation P] [--seed S]
#include <iostream>

#include "mcs/mcs.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(argc, argv,
                      {{"horizon", "simulation end time (default 120)"},
                       {"escalation", "per-level overrun probability "
                                      "(default: deterministic full overrun)"},
                       {"seed", "scenario seed (default 1)"},
                       {"gantt", "also render an ASCII Gantt chart"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("runtime_trace");
    return 0;
  }

  std::vector<McTask> tasks;
  tasks.emplace_back(1, std::vector<double>{2.0, 6.0}, 10.0);   // HI control
  tasks.emplace_back(2, std::vector<double>{1.0}, 5.0);         // LO telemetry
  tasks.emplace_back(3, std::vector<double>{4.0}, 20.0);        // LO logging
  tasks.emplace_back(4, std::vector<double>{3.0, 7.0}, 25.0);   // HI monitor
  const TaskSet ts(std::move(tasks), 2);

  const partition::CaTpaPartitioner catpa;
  const partition::PartitionResult r = catpa.run(ts, 2);
  if (!r.success) {
    std::cout << "partitioning failed\n";
    return 1;
  }
  std::cout << "Partition:";
  for (std::size_t core = 0; core < 2; ++core) {
    std::cout << "  P" << core << " = {";
    for (std::size_t t : r.partition.tasks_on(core)) {
      std::cout << " tau_" << ts[t].id();
    }
    std::cout << " }";
  }
  std::cout << "\n\nEvent trace:\n";

  sim::SimConfig config;
  config.horizon = cli.get_or("horizon", 120.0);
  sim::StreamTraceSink stream_sink(std::cout);
  sim::RecordingTraceSink recording_sink;

  // Fan out to both sinks: the stream prints live, the recorder feeds the
  // optional Gantt chart.
  struct TeeSink final : sim::TraceSink {
    void on_event(const sim::TraceEvent& e) override {
      a->on_event(e);
      b->on_event(e);
    }
    sim::TraceSink* a = nullptr;
    sim::TraceSink* b = nullptr;
  } sink;
  sink.a = &stream_sink;
  sink.b = &recording_sink;

  sim::SimResult run = [&] {
    if (cli.has("escalation")) {
      const sim::RandomScenario scenario(cli.get_or("seed", std::uint64_t{1}),
                                         cli.get_or("escalation", 0.3));
      return simulate(r.partition, scenario, config, &sink);
    }
    const sim::FixedLevelScenario scenario(2);  // every HI job overruns
    return simulate(r.partition, scenario, config, &sink);
  }();

  if (cli.has("gantt")) {
    std::cout << '\n'
              << render_gantt(recording_sink, ts,
                              sim::GanttOptions{.t_end = config.horizon});
  }

  std::cout << "\nSummary: " << run.misses.size() << " deadline misses, "
            << run.total(&sim::CoreStats::mode_switches) << " mode switches, "
            << run.total(&sim::CoreStats::jobs_dropped) << " jobs dropped, "
            << run.total(&sim::CoreStats::releases_suppressed)
            << " releases suppressed, "
            << run.total(&sim::CoreStats::idle_resets) << " idle resets\n";
  return run.missed_deadline() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("runtime_trace", [&] { return run(argc, argv); });
}
