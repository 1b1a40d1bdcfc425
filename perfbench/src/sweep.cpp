#include "sweep.hpp"

#include <bit>
#include <iostream>
#include <map>

#include "mcs/analysis/dbf.hpp"
#include "mcs/analysis/edfvd.hpp"
#include "mcs/analysis/ge_test.hpp"
#include "mcs/analysis/metrics.hpp"
#include "mcs/analysis/placement.hpp"
#include "mcs/exp/montecarlo.hpp"
#include "mcs/gen/rng.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/partition/registry.hpp"

namespace mcs::perfbench {

namespace {

/// CA-TPA's imbalance threshold in both line-ups (the paper's default).
constexpr double kAlpha = 0.7;

gen::GenParams table_iv_params(std::size_t cores, Level levels,
                               std::size_t tasks) {
  gen::GenParams p;
  p.num_cores = cores;
  p.num_levels = levels;
  p.random_levels = false;
  p.ifc = 0.4;
  p.num_tasks = tasks;  // 0: N ~ U{40..200}
  p.period_classes = {{{50.0, 200.0}, {200.0, 500.0}, {500.0, 2000.0}}};
  p.wcet_spread_lo = 0.2;
  p.wcet_spread_hi = 1.8;
  return p;
}

bool core_passes(const TaskSet& ts, std::span<const std::size_t> members,
                 Acceptance test) {
  if (members.empty()) return true;
  switch (test) {
    case Acceptance::kTheorem1: {
      UtilMatrix utils(ts.num_levels());
      for (const std::size_t task : members) utils.add(ts[task]);
      return analysis::basic_test(utils) ||
             analysis::improved_test(utils).schedulable;
    }
    case Acceptance::kDbf:
      return analysis::dbf_dual_test(ts, members).schedulable;
    case Acceptance::kGe:
      return analysis::ge_dual_test(ts, members).schedulable;
  }
  return false;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_welford(const util::Welford& a, const util::Welford& b) {
  return a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
         same_bits(a.m2(), b.m2()) &&
         (a.count() == 0 ||
          (same_bits(a.min(), b.min()) && same_bits(a.max(), b.max())));
}

bool same_aggregate(const exp::SchemeAggregate& a,
                    const exp::SchemeAggregate& b) {
  return a.scheme == b.scheme && a.trials == b.trials &&
         a.schedulable == b.schedulable && same_welford(a.u_sys, b.u_sys) &&
         same_welford(a.u_avg, b.u_avg) &&
         same_welford(a.imbalance, b.imbalance) &&
         same_welford(a.probes, b.probes);
}

/// The placement.* counters behind the analysis ratios.
struct PlacementCounters {
  std::uint64_t probes = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t eq4_accepts = 0;
  std::uint64_t improved_tests = 0;

  static PlacementCounters read() {
    obs::Registry& r = obs::Registry::instance();
    return {r.counter("placement.probes").value(),
            r.counter("placement.probes_infeasible").value(),
            r.counter("placement.eq4_accepts").value(),
            r.counter("placement.improved_tests").value()};
  }
};

/// One scheme's outcome on one trial.
struct SchemeOutcome {
  bool success = false;
  std::size_t probes = 0;
  double u_sys = 0.0;
  double u_avg = 0.0;
  double imbalance = 0.0;
};

}  // namespace

Acceptance acceptance_of(std::string_view scheme_spec) {
  if (scheme_spec == "DBF-FFD") return Acceptance::kDbf;
  if (scheme_spec == "GE-FFD" || scheme_spec == "UD-TPA/ge") {
    return Acceptance::kGe;
  }
  return Acceptance::kTheorem1;
}

std::string verify_partition(const TaskSet& ts,
                             std::span<const std::vector<std::size_t>> cores,
                             Acceptance test) {
  std::vector<char> seen(ts.size(), 0);
  std::size_t placed = 0;
  for (const std::vector<std::size_t>& members : cores) {
    for (const std::size_t task : members) {
      if (task >= ts.size() || seen[task] != 0) {
        return "task index " + std::to_string(task) +
               " out of range or placed twice";
      }
      seen[task] = 1;
      ++placed;
    }
  }
  if (placed != ts.size()) {
    return "incomplete partition: " + std::to_string(placed) + " of " +
           std::to_string(ts.size()) + " tasks placed";
  }
  for (std::size_t m = 0; m < cores.size(); ++m) {
    if (!core_passes(ts, cores[m], test)) {
      return "core " + std::to_string(m) + " fails its acceptance test";
    }
  }
  return {};
}

SweepWorkload sweep_paper() {
  SweepWorkload w;
  w.name = "sweep-paper";
  w.base = table_iv_params(8, 4, 0);
  w.nsu = {0.4, 0.5, 0.6, 0.7, 0.8};
  w.schemes = {"WFD", "FFD", "BFD", "Hybrid", "CA-TPA"};
  w.reference_trials = 64;
  w.tail = 99;
  return w;
}

SweepWorkload sweep_demand() {
  SweepWorkload w;
  w.name = "sweep-demand";
  w.base = table_iv_params(4, 2, 48);
  w.nsu = {0.6, 0.7, 0.8, 0.85, 0.9, 0.95};
  w.schemes = {"CA-TPA", "UD-TPA", "UD-TPA/ge", "GE-FFD", "DBF-FFD"};
  w.reference_trials = 16;
  w.tail = 90;
  return w;
}

namespace {

/// What the set-up builds: per-point generator parameters and seeds, the
/// scheme line-up, and the reference aggregates of the trial prefix.
struct SweepSetup {
  std::vector<gen::GenParams> params;
  std::vector<std::uint64_t> point_seed;
  partition::PartitionerList schemes;
  std::vector<exp::PointResult> reference;
};

/// Builds the set-up one point at a time, ending a stretch of `clock`
/// after each.
SweepSetup set_up(const SweepWorkload& w, std::uint64_t seed,
                  ReferenceStopwatch& clock) {
  SweepSetup s;
  for (std::size_t p = 0; p < w.nsu.size(); ++p) {
    s.params.push_back(w.base);
    s.params.back().nsu = w.nsu[p];
    s.point_seed.push_back(gen::derive_seed(seed, p));  // as exp::run_spec
  }
  s.schemes = partition::make_scheme_list(w.schemes, kAlpha);
  for (std::size_t p = 0; p < w.nsu.size(); ++p) {
    const exp::RunOptions run{
        .trials = w.reference_trials, .seed = s.point_seed[p], .threads = 1};
    s.reference.push_back(
        exp::run_point(s.params[p], s.schemes, run, w.nsu[p]));
    clock.lap();
  }
  return s;
}

}  // namespace

Report run_sweep(const SweepWorkload& w, const Options& options) {
  Report report;
  // mcs_exp runs with the metrics gate on by default; so does this.
  const obs::MetricsEnabledGuard metrics_on(true);
  const std::size_t points = w.nsu.size();
  const std::size_t cores = w.base.num_cores;

  // The harness's sample buffers are resident before the baseline, so
  // peak_rss_mb counts what the set-up and the ops add.
  LatencySamples latency(options.seed);
  std::vector<std::int64_t> block_latency;
  block_latency.reserve(kMaxBlockOps);
  HostGauge gauge;
  std::vector<double> readings = {gauge.slowdown()};
  PeakRss rss;

  // --- Set-up: the exp::run_point reference pass (one thread) over the
  // first reference_trials trials of every point; it also warms up.
  ReferenceStopwatch setup_clock(gauge, readings.back());
  const SweepSetup setup = set_up(w, options.seed, setup_clock);
  const double setup_s = setup_clock.seconds();
  double slowdown = setup_clock.reading();
  rss.sample();
  const std::vector<gen::GenParams>& params = setup.params;
  const std::vector<std::uint64_t>& point_seed = setup.point_seed;
  const partition::PartitionerList& schemes = setup.schemes;

  const std::size_t n_schemes = schemes.size();
  std::vector<std::string> span_names;
  std::vector<Acceptance> tests;
  for (std::size_t s = 0; s < n_schemes; ++s) {
    span_names.push_back("partition." + sanitize_scheme(schemes[s]->name()));
    tests.push_back(acceptance_of(w.schemes[s]));
  }

  analysis::PlacementEngine engine;
  gen::TrialArena arena;
  Tracer tracer;
  std::vector<SchemeOutcome> outcome(n_schemes);
  // Per scheme, per core: the members of a claimed success, copied out of
  // the engine so the from-scratch check can run after the op's clock.
  std::vector<std::vector<std::vector<std::size_t>>> placed(
      n_schemes, std::vector<std::vector<std::size_t>>(cores));
  const TaskSet* ts = nullptr;

  auto run_op = [&](std::uint64_t op) {
    const std::size_t p = op % points;
    const std::uint64_t trial = op / points;
    tracer.set_op(op);
    const std::int64_t start = now_ns();
    {
      const Scope op_span(tracer, kOpSpan);
      {
        const Scope span(tracer, "gen");
        ts = &arena.generate_trial(params[p], point_seed[p], trial);
      }
      for (std::size_t s = 0; s < n_schemes; ++s) {
        {
          const Scope span(tracer, "analysis.reset");
          engine.reset(*ts, cores);
        }
        partition::PlacementOutcome placement;
        {
          const Scope span(tracer, span_names[s].c_str());
          placement = schemes[s]->run_on(engine);
        }
        SchemeOutcome& out = outcome[s];
        out.success = placement.success;
        out.probes = engine.probes();
        if (!placement.success) continue;
        analysis::PartitionMetrics m;
        {
          const Scope span(tracer, "analysis.metrics");
          m = analysis::partition_metrics(engine.partition());
        }
        out.u_sys = m.u_sys;
        out.u_avg = m.u_avg;
        out.imbalance = m.imbalance;
        for (std::size_t c = 0; c < cores; ++c) {
          const std::vector<std::size_t>& members =
              engine.partition().tasks_on(c);
          placed[s][c].assign(members.begin(), members.end());
        }
      }
    }
    return now_ns() - start;
  };

  // --- Timed windows.  An op's clock covers the trial only; the output
  // checks run between ops, off the clock.  The op sequence continues
  // across windows.  Traced runs alternate untraced and traced windows, so
  // trace.overhead_pct compares neighbouring stretches of the same run.
  const std::uint64_t prefix_ops = w.reference_trials * points;
  std::vector<std::vector<exp::SchemeAggregate>> prefix(
      points, std::vector<exp::SchemeAggregate>(n_schemes));
  for (std::size_t p = 0; p < points; ++p) {
    for (std::size_t s = 0; s < n_schemes; ++s) {
      prefix[p][s].scheme = schemes[s]->name();
    }
  }
  std::vector<double> prefix_probes(n_schemes, 0.0);
  std::vector<double> traced_probes(n_schemes, 0.0);
  const PlacementCounters counters_before = PlacementCounters::read();
  PlacementCounters counters_prefix;

  // Ops run in blocks of kGaugeBlockNs op time with a gauge reading after
  // each; a block's op times are divided by the mean of the readings
  // before and after it.
  double busy_ns[2] = {0, 0};  // [untraced, traced] reference op time
  std::int64_t wall_busy_ns = 0;
  std::uint64_t ops_done[2] = {0, 0};
  const int n_windows = options.trace ? kTracedWindows : 1;
  const auto window_ns = static_cast<std::int64_t>(
      options.seconds * 1e9 / static_cast<double>(n_windows));
  std::uint64_t op = 0;
  for (int window = 0; window < n_windows; ++window) {
    const bool traced = options.trace && window % 2 == 1;
    tracer.set_enabled(traced);
    std::int64_t busy = 0;
    std::int64_t block_busy = 0;
    std::size_t block_first_span = tracer.spans().size();
    const auto end_block = [&] {
      rss.sample();
      const double after = gauge.slowdown();
      const double block_slowdown = 0.5 * (slowdown + after);
      slowdown = after;
      readings.push_back(after);
      for (const std::int64_t ns : block_latency) {
        latency.add(static_cast<double>(ns) * 1e-3 / block_slowdown);
      }
      tracer.set_slowdown_from(block_first_span, block_slowdown);
      busy_ns[traced ? 1 : 0] +=
          static_cast<double>(block_busy) / block_slowdown;
      block_latency.clear();
      block_busy = 0;
      block_first_span = tracer.spans().size();
    };
    while (busy < window_ns || op < prefix_ops) {
      const std::int64_t elapsed = run_op(op);
      busy += elapsed;
      wall_busy_ns += elapsed;
      block_busy += elapsed;
      ++ops_done[traced ? 1 : 0];
      ++report.attempted;
      if (!traced) block_latency.push_back(elapsed);

      bool op_ok = true;
      for (std::size_t s = 0; s < n_schemes; ++s) {
        const SchemeOutcome& out = outcome[s];
        if (traced) traced_probes[s] += static_cast<double>(out.probes);
        if (op < prefix_ops) {
          exp::SchemeAggregate& agg = prefix[op % points][s];
          ++agg.trials;
          agg.probes.add(static_cast<double>(out.probes));
          prefix_probes[s] += static_cast<double>(out.probes);
          if (out.success) {
            ++agg.schedulable;
            agg.u_sys.add(out.u_sys);
            agg.u_avg.add(out.u_avg);
            agg.imbalance.add(out.imbalance);
          }
        }
        if (!out.success) continue;
        const std::string why = verify_partition(*ts, placed[s], tests[s]);
        if (!why.empty()) {
          report.wrong(w.name + " op " + std::to_string(op) + " " +
                       schemes[s]->name() + ": " + why);
          op_ok = false;
        }
      }
      if (!op_ok) ++report.failed;
      ++op;
      if (op == prefix_ops) counters_prefix = PlacementCounters::read();
      if (block_busy >= kGaugeBlockNs ||
          block_latency.size() == kMaxBlockOps) {
        end_block();
      }
    }
    if (block_busy > 0) end_block();
  }

  for (std::size_t p = 0; p < points; ++p) {
    for (std::size_t s = 0; s < n_schemes; ++s) {
      if (!same_aggregate(prefix[p][s], setup.reference[p].schemes[s])) {
        report.wrong(w.name + ": point " + std::to_string(p) + " " +
                     schemes[s]->name() +
                     " aggregate differs from exp::run_point");
      }
    }
  }

  const auto ops_per_s = [&](int traced) {
    return static_cast<double>(ops_done[traced]) / (busy_ns[traced] * 1e-9);
  };
  report.slowdown = median(readings);
  report.wall_ops_per_s = static_cast<double>(ops_done[0] + ops_done[1]) /
                          (static_cast<double>(wall_busy_ns) * 1e-9);

  if (!options.trace) {
    add_end_to_end(report, setup_s, ops_per_s(0),
                   {latency.values().begin(), latency.values().end()}, w.tail,
                   rss);
    return report;
  }

  const Tracer* tracers[] = {&tracer};
  const LayerTimes layers = layer_times(tracers);
  const auto per_op_us = [&](const std::string& name) {
    const auto it = layers.self_ns.find(name);
    const double total = it == layers.self_ns.end() ? 0.0 : it->second;
    return total * 1e-3 / static_cast<double>(layers.ops);
  };
  std::map<std::string, double> values;
  values["gen.trial_us"] = per_op_us("gen");
  values["analysis.reset_us"] = per_op_us("analysis.reset");
  values["analysis.metrics_us"] = per_op_us("analysis.metrics");
  for (std::size_t s = 0; s < n_schemes; ++s) {
    const std::string key = span_names[s];
    const double us = per_op_us(key);
    values[key + ".us"] = us;
    values[key + ".probes"] =
        prefix_probes[s] / static_cast<double>(prefix_ops);
    values[key + ".ns_per_probe"] =
        us * 1e3 * static_cast<double>(layers.ops) / traced_probes[s];
  }
  const double eq4 = static_cast<double>(counters_prefix.eq4_accepts -
                                         counters_before.eq4_accepts);
  const double improved = static_cast<double>(
      counters_prefix.improved_tests - counters_before.improved_tests);
  values["analysis.eq4_accept_ratio"] =
      eq4 + improved > 0 ? eq4 / (eq4 + improved) : 0.0;
  const double probes =
      static_cast<double>(counters_prefix.probes - counters_before.probes);
  values["analysis.infeasible_ratio"] =
      probes > 0 ? static_cast<double>(counters_prefix.infeasible -
                                       counters_before.infeasible) /
                       probes
                 : 0.0;
  values["op.uncovered_share"] =
      layers.self_ns.at(kOpSpan) / layers.op_total_ns;
  values["trace.overhead_pct"] = (ops_per_s(0) / ops_per_s(1) - 1.0) * 100.0;
  add_layer_metrics(report, values);
  if (!write_spans(options.scratch + "/spans-" + w.name + ".tsv", tracers)) {
    std::cerr << "perfbench: could not write the span file\n";
  }
  return report;
}

}  // namespace mcs::perfbench
