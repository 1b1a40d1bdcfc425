// bench_probe: latency of the batched all-cores placement probe vs. M
// scalar probes on the same PlacementEngine state.
//
//   bench_probe                  # full run, writes BENCH_probe.json
//   bench_probe --quick          # CI smoke: fewer sweeps at N = 400
//   bench_probe --min-speedup 1.0
//
// Workload: K=4 criticality levels on M=8 cores (the paper's default
// platform), N in {50, 100, 400} tasks.  Half the tasks are committed
// round-robin to give the level-utilization planes a realistic mixed
// occupancy; the other half is then probed against every core — exactly
// the inner loop of CA-TPA's placement scan — with the default
// min-over-feasible policy.  The scalar side issues M individual
// PlacementEngine::probe calls per task; the batched side one
// probe_all_cores call per task.  Both sides fold the same checksum over
// the results in the same (task, core) order, so the work cannot be
// optimized away and any divergence is caught.
//
// Before timing, every probed task is checked bit-identical between the
// scalar and batched paths (feasible flag, new_util, increment, both
// accept masks), so a published speedup can never come from a divergent
// kernel.  Exit is nonzero when the aggregate batched/scalar throughput
// ratio falls below --min-speedup (per-size times at the small end are
// microseconds and too noisy to gate on individually).
//
// The emitted JSON carries a "gate_tolerances" object consumed by
// tools/check_bench_regression.py: per-ratio-label fractional tolerances
// (with a "default" key) that replace the gate's single global knob —
// small-N per-size ratios get a looser floor than the aggregates.
#include <array>
#include <bit>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "interleaved_timing.hpp"
#include "mcs/analysis/placement.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/util/cli.hpp"
#include "mcs/util/json.hpp"
#include "mcs/util/table.hpp"

namespace {

using namespace mcs;

constexpr std::size_t kCores = 8;
constexpr Level kLevels = 4;
constexpr std::uint64_t kSeed = 0x9D0BE;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The probed workload: a generated task set with the even tasks committed
/// round-robin (feasible or not — the planes track the matrices either
/// way) and the odd tasks left for probing.
struct Workload {
  TaskSet ts;
  std::vector<std::size_t> probe_tasks;
};

Workload make_workload(std::size_t num_tasks) {
  gen::GenParams gp;
  gp.num_cores = kCores;
  gp.num_levels = kLevels;
  gp.num_tasks = num_tasks;
  gp.nsu = 0.6;
  Workload w{gen::generate_trial(gp, kSeed, num_tasks), {}};
  for (std::size_t t = 1; t < w.ts.size(); t += 2) w.probe_tasks.push_back(t);
  return w;
}

void commit_even_tasks(analysis::PlacementEngine& engine, std::size_t n) {
  for (std::size_t t = 0; t < n; t += 2) {
    engine.commit(t, (t / 2) % kCores);
  }
}

/// Bitwise parity of one batched sweep against M scalar probes per task.
/// Returns an error description, or empty when identical.
std::string check_parity(analysis::PlacementEngine& engine,
                         const std::vector<std::size_t>& tasks) {
  std::vector<analysis::ProbeResult> batched(kCores);
  std::vector<unsigned char> mask(kCores, 0);
  const analysis::ProbePolicy policies[] = {
      analysis::ProbePolicy::kFirstFeasible,
      analysis::ProbePolicy::kMinOverFeasible,
      analysis::ProbePolicy::kMaxOverFeasible};
  for (const std::size_t t : tasks) {
    for (const analysis::ProbePolicy policy : policies) {
      engine.probe_all_cores(t, policy, batched);
      for (std::size_t m = 0; m < kCores; ++m) {
        const analysis::ProbeResult scalar = engine.probe(t, m, policy);
        if (scalar.feasible != batched[m].feasible ||
            !bits_equal(scalar.new_util, batched[m].new_util) ||
            !bits_equal(scalar.increment, batched[m].increment)) {
          std::ostringstream os;
          os << "task " << t << " core " << m << ": batched probe diverges "
             << "from scalar (policy " << static_cast<int>(policy) << ")";
          return os.str();
        }
      }
    }
    engine.probe_fits_all(t, mask);
    for (std::size_t m = 0; m < kCores; ++m) {
      if ((mask[m] != 0) != engine.probe_fits(t, m)) {
        return "accept-mask divergence at task " + std::to_string(t);
      }
    }
    engine.probe_fits_basic_all(t, mask);
    for (std::size_t m = 0; m < kCores; ++m) {
      if ((mask[m] != 0) != engine.probe_fits_basic(t, m)) {
        return "Eq.(4)-mask divergence at task " + std::to_string(t);
      }
    }
  }
  return {};
}

struct ProbeRun {
  double seconds = 0.0;
  std::uint64_t probes = 0;
  double checksum = 0.0;

  [[nodiscard]] double ns_per_probe() const {
    return probes > 0 ? seconds * 1e9 / static_cast<double>(probes) : 0.0;
  }
};

struct ProbeRuns {
  ProbeRun scalar;
  ProbeRun batched;
};

/// The two probe paths over `sweeps` full probe passes, timed by one
/// interleaved best-of-`reps` loop: M scalar probes per task, and one
/// probe_all_cores call per task.  Both paths fold their results in the
/// same (task, core) order, so the two checksums must be bit-identical.
ProbeRuns time_probe_paths(analysis::PlacementEngine& engine,
                           const std::vector<std::size_t>& tasks,
                           std::size_t sweeps, std::size_t reps) {
  constexpr auto kPolicy = analysis::ProbePolicy::kMinOverFeasible;
  std::vector<analysis::ProbeResult> out(kCores);
  const auto scalar_pass = [&] {
    double checksum = 0.0;
    for (std::size_t s = 0; s < sweeps; ++s) {
      for (const std::size_t t : tasks) {
        for (std::size_t m = 0; m < kCores; ++m) {
          const analysis::ProbeResult r = engine.probe(t, m, kPolicy);
          if (r.feasible) checksum += r.new_util;
        }
      }
    }
    return checksum;
  };
  const auto batched_pass = [&] {
    double checksum = 0.0;
    for (std::size_t s = 0; s < sweeps; ++s) {
      for (const std::size_t t : tasks) {
        engine.probe_all_cores(t, kPolicy, out);
        for (std::size_t m = 0; m < kCores; ++m) {
          if (out[m].feasible) checksum += out[m].new_util;
        }
      }
    }
    return checksum;
  };
  std::array<double, 2> checksums{};
  const std::array<double, 2> seconds =
      bench::best_interleaved_seconds<2>(reps, [&](std::size_t path) {
        checksums[path] = path == 0 ? scalar_pass() : batched_pass();
      });
  const auto probes =
      static_cast<std::uint64_t>(sweeps * tasks.size() * kCores);
  return {{seconds[0], probes, checksums[0]},
          {seconds[1], probes, checksums[1]}};
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
        {{"quick",
          "CI smoke: 20 sweeps per repetition instead of 200 where N > 100"},
         {"out", "output JSON path (default BENCH_probe.json)"},
         {"min-speedup",
          "fail (exit 1) when the aggregate batched/scalar probe-throughput "
          "ratio falls below this (default 1.0)"},
         {"sweeps",
          "probe passes per timed repetition at every N (default 200)"}});
    if (cli.help_requested()) {
      std::cout << cli.usage("bench_probe");
      return 0;
    }
    const bool quick = cli.has("quick");
    const std::string out_path =
        cli.get_or("out", std::string("BENCH_probe.json"));
    const double min_speedup = cli.get_or("min-speedup", 1.0);
    const std::size_t sweeps = static_cast<std::size_t>(
        cli.get_or("sweeps", quick ? std::uint64_t{20} : std::uint64_t{200}));
    // --quick keeps 200 sweeps up to N = 100: at 20 the N = 50 pass timed
    // about 50 us, short enough for one preemption to put its ratio below
    // the floor.  Only N = 400 runs the shorter smoke pass.
    const auto sweeps_at = [&](std::size_t n) {
      return quick && !cli.has("sweeps") && n <= 100 ? std::size_t{200}
                                                      : sweeps;
    };
    // Best of 5 interleaved rounds in both modes: the committed baseline is
    // a best-of-5, and one timing per path let a single descheduling put a
    // --quick ratio below its floor.
    const std::size_t reps = 5;

    const std::size_t sizes[] = {50, 100, 400};

    util::Json doc = util::Json::object();
    doc.set("bench", util::Json::string("bench_probe"));
    doc.set("cores", util::Json::number(std::uint64_t{kCores}));
    doc.set("levels", util::Json::number(std::uint64_t{kLevels}));
    doc.set("policy", util::Json::string("min-over-feasible"));
    doc.set("sweeps", util::Json::number(std::uint64_t{sweeps}));
    doc.set("repetitions", util::Json::number(std::uint64_t{reps}));
    doc.set("quick", util::Json::boolean(quick));
    util::Json rows = util::Json::array();

    util::Table table(
        {"tasks", "probes", "scalar ns/p", "batched ns/p", "speedup"});
    double scalar_total_s = 0.0;
    double batched_total_s = 0.0;

    for (const std::size_t n : sizes) {
      const Workload w = make_workload(n);
      analysis::PlacementEngine engine(w.ts, kCores);
      commit_even_tasks(engine, w.ts.size());

      const std::string parity = check_parity(engine, w.probe_tasks);
      if (!parity.empty()) {
        std::cerr << "bench_probe: parity failure at N=" << n << ": "
                  << parity << "\n";
        return 1;
      }

      const auto [scalar, batched] =
          time_probe_paths(engine, w.probe_tasks, sweeps_at(n), reps);
      if (!bits_equal(scalar.checksum, batched.checksum)) {
        std::cerr << "bench_probe: checksum divergence at N=" << n << "\n";
        return 1;
      }
      const double speedup =
          batched.seconds > 0.0 ? scalar.seconds / batched.seconds : 0.0;
      scalar_total_s += scalar.seconds;
      batched_total_s += batched.seconds;

      table.begin_row();
      table.add_cell(n);
      table.add_cell(static_cast<std::size_t>(scalar.probes));
      table.add_cell(scalar.ns_per_probe(), 1);
      table.add_cell(batched.ns_per_probe(), 1);
      table.add_cell(speedup, 2);

      util::Json row = util::Json::object();
      row.set("tasks", util::Json::number(std::uint64_t{n}));
      row.set("sweeps", util::Json::number(std::uint64_t{sweeps_at(n)}));
      row.set("probes", util::Json::number(scalar.probes));
      util::Json scalar_json = util::Json::object();
      scalar_json.set("seconds", num(scalar.seconds));
      scalar_json.set("ns_per_probe", num(scalar.ns_per_probe()));
      row.set("scalar", std::move(scalar_json));
      util::Json batched_json = util::Json::object();
      batched_json.set("seconds", num(batched.seconds));
      batched_json.set("ns_per_probe", num(batched.ns_per_probe()));
      row.set("batched", std::move(batched_json));
      row.set("speedup", num(speedup));
      rows.push(std::move(row));
    }
    doc.set("sizes", std::move(rows));
    const double aggregate =
        batched_total_s > 0.0 ? scalar_total_s / batched_total_s : 0.0;
    doc.set("aggregate_speedup", num(aggregate));

    // Per-ratio regression-gate tolerances, read by
    // tools/check_bench_regression.py: the aggregate is the stable
    // headline number, while the N=50 sweeps finish in microseconds and
    // need a looser floor on shared CI runners.
    util::Json tol = util::Json::object();
    tol.set("default", num(0.25));
    tol.set("aggregate", num(0.20));
    tol.set("tasks=50", num(0.35));
    doc.set("gate_tolerances", std::move(tol));

    // Disabled-tracing overhead gate: probe_all_cores carries one ScopedSpan
    // per call (kCores probes), so the relative cost of a disabled span is
    // span_ns / (batched ns/probe * kCores).  The budget is 1%.
    std::uint64_t total_probes = 0;
    for (const util::Json& row : doc.at("sizes").items()) {
      total_probes += row.at("probes").as_u64();
    }
    const double batched_ns_per_probe =
        total_probes > 0
            ? batched_total_s * 1e9 / static_cast<double>(total_probes)
            : 0.0;
    const double span_ns =
        bench::time_disabled_span_ns(quick ? 1'000'000 : 4'000'000,
                                     quick ? 2 : 5);
    const double overhead_pct =
        batched_ns_per_probe > 0.0
            ? 100.0 * span_ns / (batched_ns_per_probe * kCores)
            : 0.0;
    doc.set("disabled_span_ns", num(span_ns));
    doc.set("trace_overhead_pct", num(overhead_pct));

    table.print(std::cout);
    std::cout << "\naggregate speedup (total scalar s / total batched s): "
              << aggregate << "\n";
    std::cout << "disabled span: " << span_ns << " ns ("
              << overhead_pct << "% of a batched probe call)\n";
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_probe: cannot write " << out_path << "\n";
      return 1;
    }
    out << doc.dump() << "\n";
    std::cout << "wrote " << out_path << "\n";

    if (aggregate < min_speedup) {
      std::cerr << "bench_probe: throughput regression: aggregate speedup "
                << aggregate << " < required " << min_speedup << "\n";
      return 1;
    }
    if (overhead_pct > 1.0) {
      std::cerr << "bench_probe: disabled-tracing overhead " << overhead_pct
                << "% exceeds the 1% budget (" << span_ns
                << " ns per span vs " << batched_ns_per_probe * kCores
                << " ns per batched call)\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_probe: " << e.what() << "\n";
    return 1;
  }
}
