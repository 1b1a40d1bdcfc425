// bench_sim_engine: throughput of the fast event-calendar simulation kernel
// vs. the reference O(n)-scan engine, on hyperperiod-length runs.
//
//   bench_sim_engine                 # full run, writes BENCH_sim.json
//   bench_sim_engine --quick         # CI smoke: short horizon
//   bench_sim_engine --min-speedup 1.0
//
// Workload: N in {50, 100, 400} tasks on 2 cores (the paper's smallest
// platform — and the regime where per-core ready queues get deep: depth
// scales with members per core, so N=400 means ~200-deep queues), dual
// criticality, periods from a small-LCM grid (hyperperiod 200) so runs
// cover exact hyperperiods.  Tasks are spread worst-fit by own-level
// utilization with NO feasibility gate — the benchmark measures the
// engine, not the analysis, and overload (misses, mode switches, idle
// resets) is part of the measured behaviour (stop_core_on_miss=false keeps
// cores running).
//
// Both engines are first checked bit-identical on the workload (full trace
// diff via verify::compare_sim_runs); the run aborts nonzero on divergence,
// so a published speedup can never come from a divergent kernel.  Exit is
// also nonzero when the fast engine's aggregate events/sec across all
// sizes falls below --min-speedup x the reference (per-size timings at the
// small end are sub-millisecond and too noisy to gate on individually).
#include <array>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "interleaved_timing.hpp"
#include "mcs/core/partition.hpp"
#include "mcs/core/taskset.hpp"
#include "mcs/gen/rng.hpp"
#include "mcs/sim/engine.hpp"
#include "mcs/sim/scenario.hpp"
#include "mcs/sim/trace.hpp"
#include "mcs/util/cli.hpp"
#include "mcs/util/json.hpp"
#include "mcs/util/table.hpp"
#include "mcs/verify/differential.hpp"

namespace {

using namespace mcs;

constexpr std::size_t kCores = 2;
constexpr double kHyperperiod = 200.0;  // LCM of the period grid below
constexpr std::uint64_t kSeed = 0xB51ACE;

/// Deterministic dual-criticality workload: periods from a grid whose LCM
/// is 200, ~30% HI tasks, per-task LO utilization scaled so each core's
/// *actual* demand sits near saturation regardless of N.  RandomScenario
/// draws execution times uniformly in (0, c1], i.e. half the nominal WCET
/// on average, so the nominal LO sum targets ~1.9 per core for ~0.95
/// actual.  Near-saturation matters: release bursts drain slowly, so ready
/// queues stay tens of jobs deep — the regime the indexed-heap kernel
/// exists for (and the regime the oracle's overload probes create).
TaskSet make_taskset(std::size_t num_tasks) {
  const double grid[] = {10.0, 20.0, 25.0, 40.0, 50.0, 100.0};
  const double mean_u =
      1.9 * static_cast<double>(kCores) / static_cast<double>(num_tasks);
  gen::Rng rng(gen::derive_seed(kSeed, num_tasks));
  std::vector<McTask> tasks;
  tasks.reserve(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    const double period = grid[rng.uniform_int(0, 5)];
    const double u_lo = mean_u * rng.uniform(0.5, 1.5);
    const double wcet_lo = std::min(u_lo * period, 0.5 * period);
    std::vector<double> wcets = {wcet_lo};
    if (rng.bernoulli(0.3)) {
      const double wcet_hi =
          std::min(wcet_lo * rng.uniform(1.5, 3.0), 0.95 * period);
      wcets.push_back(std::max(wcet_hi, wcet_lo));
    }
    tasks.emplace_back(i, std::move(wcets), period);
  }
  return TaskSet(std::move(tasks), 2);
}

/// Worst-fit by own-level utilization, no feasibility gate.
Partition spread(const TaskSet& ts) {
  Partition partition(ts, kCores);
  std::vector<double> load(kCores, 0.0);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    std::size_t best = 0;
    for (std::size_t m = 1; m < kCores; ++m) {
      if (load[m] < load[best]) best = m;
    }
    partition.assign(i, best);
    load[best] += ts[i].wcet(ts[i].level()) / ts[i].period();
  }
  return partition;
}

sim::SimConfig base_config(double hyperperiods) {
  sim::SimConfig cfg;
  cfg.horizon = hyperperiods * kHyperperiod;
  cfg.stop_core_on_miss = false;  // transient overload keeps cores running
  // Plain EDF: the nominal (WCET-based) load is far above 1, so a derived
  // virtual-deadline policy would be degenerate; AMC mode switching is
  // exercised regardless (escalated HI jobs still exhaust LO budgets).
  cfg.use_virtual_deadlines = false;
  return cfg;
}

/// Engine-independent event total of a run (parity guarantees both engines
/// agree on it) — the denominator-independent throughput unit.
std::uint64_t total_events(const sim::SimResult& r) {
  std::uint64_t events = r.misses.size();
  for (const sim::CoreStats& c : r.cores) {
    events += c.jobs_released + c.jobs_completed + c.jobs_dropped +
              c.releases_suppressed + c.mode_switches + c.idle_resets +
              c.preemptions;
  }
  return events;
}

struct EngineRun {
  double seconds = 0.0;
  std::uint64_t events = 0;

  [[nodiscard]] double events_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  }
  [[nodiscard]] double us_per_hyperperiod(double hyperperiods) const {
    return hyperperiods > 0.0 ? seconds * 1e6 / hyperperiods : 0.0;
  }
};

/// The reference and the fast engine on the workload, timed by one
/// interleaved best-of-`reps` loop.
std::array<EngineRun, 2> time_engines(const Partition& partition,
                                      const sim::ExecutionScenario& scenario,
                                      const sim::SimConfig& cfg,
                                      std::size_t reps) {
  std::array<sim::SimConfig, 2> configs{cfg, cfg};
  configs[0].engine = sim::EngineKind::kReference;
  configs[1].engine = sim::EngineKind::kEventCalendar;
  std::array<std::uint64_t, 2> events{};
  const std::array<double, 2> seconds =
      bench::best_interleaved_seconds<2>(reps, [&](std::size_t path) {
        events[path] = total_events(
            sim::simulate(partition, scenario, configs[path], nullptr));
      });
  return {EngineRun{seconds[0], events[0]}, EngineRun{seconds[1], events[1]}};
}

util::Json num(double value, int precision = 6) {
  std::ostringstream os;
  os.precision(precision);
  os << value;
  return util::Json::number_raw(os.str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(
        argc, argv,
        {{"quick", "CI smoke: 4 hyperperiods per run instead of 20"},
         {"out", "output JSON path (default BENCH_sim.json)"},
         {"min-speedup",
          "fail (exit 1) when the aggregate fast/reference events-per-sec "
          "ratio falls below this (default 1.0)"},
         {"hyperperiods", "simulated hyperperiods per run (default 20)"}});
    if (cli.help_requested()) {
      std::cout << cli.usage("bench_sim_engine");
      return 0;
    }
    const bool quick = cli.has("quick");
    const std::string out_path = cli.get_or("out", std::string("BENCH_sim.json"));
    const double min_speedup = cli.get_or("min-speedup", 1.0);
    const double hyperperiods =
        cli.get_or("hyperperiods", quick ? 4.0 : 20.0);
    // Best of 5 interleaved rounds in both modes: with one timing per
    // path, a single descheduling put a --quick ratio below its floor.
    const std::size_t reps = 5;

    const std::size_t sizes[] = {50, 100, 400};
    const sim::RandomScenario scenario(gen::derive_seed(kSeed, 0xE5C),
                                       0.05);

    util::Json doc = util::Json::object();
    doc.set("bench", util::Json::string("bench_sim_engine"));
    doc.set("cores", util::Json::number(std::uint64_t{kCores}));
    doc.set("hyperperiod", num(kHyperperiod));
    doc.set("hyperperiods", num(hyperperiods));
    doc.set("repetitions", util::Json::number(std::uint64_t{reps}));
    doc.set("quick", util::Json::boolean(quick));
    util::Json rows = util::Json::array();

    util::Table table({"tasks", "events", "ref s", "fast s", "ref ev/s",
                       "fast ev/s", "ref us/hp", "fast us/hp", "speedup"});
    double ref_total_s = 0.0;
    double fast_total_s = 0.0;
    double min_fast_s = 0.0;

    for (const std::size_t n : sizes) {
      const TaskSet ts = make_taskset(n);
      const Partition partition = spread(ts);
      const sim::SimConfig cfg = base_config(hyperperiods);

      // Parity gate on this exact workload (shorter horizon: the trace of a
      // full run would dominate the benchmark's own runtime).
      {
        sim::SimConfig pcfg = base_config(std::min(hyperperiods, 2.0));
        sim::SimConfig pfast = pcfg;
        pfast.engine = sim::EngineKind::kEventCalendar;
        sim::SimConfig pref = pcfg;
        pref.engine = sim::EngineKind::kReference;
        sim::RecordingTraceSink fast_sink;
        sim::RecordingTraceSink ref_sink;
        const sim::SimResult fast =
            sim::simulate(partition, scenario, pfast, &fast_sink);
        const sim::SimResult ref =
            sim::simulate(partition, scenario, pref, &ref_sink);
        const verify::CheckResult parity = verify::compare_sim_runs(
            fast, ref, fast_sink.events(), ref_sink.events());
        if (!parity.ok) {
          std::cerr << "bench_sim_engine: engines diverged at N=" << n << ": "
                    << parity.detail << "\n";
          return 1;
        }
      }

      const auto [ref, fast] = time_engines(partition, scenario, cfg, reps);
      if (ref.events != fast.events) {
        std::cerr << "bench_sim_engine: event totals diverged at N=" << n
                  << ": " << fast.events << " vs " << ref.events << "\n";
        return 1;
      }
      const double speedup =
          ref.seconds > 0.0 ? ref.seconds / fast.seconds : 0.0;
      ref_total_s += ref.seconds;
      fast_total_s += fast.seconds;
      if (min_fast_s == 0.0 || fast.seconds < min_fast_s) {
        min_fast_s = fast.seconds;
      }

      table.begin_row();
      table.add_cell(n);
      table.add_cell(static_cast<std::size_t>(ref.events));
      table.add_cell(ref.seconds, 4);
      table.add_cell(fast.seconds, 4);
      table.add_cell(ref.events_per_sec(), 0);
      table.add_cell(fast.events_per_sec(), 0);
      table.add_cell(ref.us_per_hyperperiod(hyperperiods), 1);
      table.add_cell(fast.us_per_hyperperiod(hyperperiods), 1);
      table.add_cell(speedup, 2);

      util::Json row = util::Json::object();
      row.set("tasks", util::Json::number(std::uint64_t{n}));
      row.set("events", util::Json::number(ref.events));
      util::Json ref_json = util::Json::object();
      ref_json.set("seconds", num(ref.seconds));
      ref_json.set("events_per_sec", num(ref.events_per_sec()));
      ref_json.set("us_per_hyperperiod",
                   num(ref.us_per_hyperperiod(hyperperiods)));
      row.set("reference", std::move(ref_json));
      util::Json fast_json = util::Json::object();
      fast_json.set("seconds", num(fast.seconds));
      fast_json.set("events_per_sec", num(fast.events_per_sec()));
      fast_json.set("us_per_hyperperiod",
                    num(fast.us_per_hyperperiod(hyperperiods)));
      row.set("fast", std::move(fast_json));
      row.set("speedup", num(speedup));
      rows.push(std::move(row));
    }
    doc.set("sizes", std::move(rows));
    const double aggregate =
        fast_total_s > 0.0 ? ref_total_s / fast_total_s : 0.0;
    doc.set("aggregate_speedup", num(aggregate));

    // Disabled-tracing overhead gate: one simulate() run costs 1 + kCores
    // gate-checked spans (the top-level span plus one gate sample per core
    // kernel; everything per-event branches on a plain cached bool); bound
    // their cost against the *shortest* fast run (the worst-case ratio).
    // The budget is 1%.
    const double span_ns =
        bench::time_disabled_span_ns(quick ? 1'000'000 : 4'000'000,
                                     quick ? 2 : 5);
    const double gate_ns = static_cast<double>(1 + kCores) * span_ns;
    const double overhead_pct =
        min_fast_s > 0.0 ? 100.0 * gate_ns / (min_fast_s * 1e9) : 0.0;
    doc.set("disabled_span_ns", num(span_ns));
    doc.set("trace_overhead_pct", num(overhead_pct));

    table.print(std::cout);
    std::cout << "\naggregate speedup (total ref s / total fast s): "
              << aggregate << "\n";
    std::cout << "disabled spans: " << gate_ns << " ns per simulate ("
              << overhead_pct << "% of the shortest fast run)\n";
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_sim_engine: cannot write " << out_path << "\n";
      return 1;
    }
    out << doc.dump() << "\n";
    std::cout << "wrote " << out_path << "\n";

    if (aggregate < min_speedup) {
      std::cerr << "bench_sim_engine: throughput regression: aggregate "
                << "speedup " << aggregate << " < required " << min_speedup
                << "\n";
      return 1;
    }
    if (overhead_pct > 1.0) {
      std::cerr << "bench_sim_engine: disabled-tracing overhead "
                << overhead_pct << "% exceeds the 1% budget (" << gate_ns
                << " ns of gate checks vs " << min_fast_s * 1e9
                << " ns shortest fast run)\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_sim_engine: " << e.what() << "\n";
    return 1;
  }
}
