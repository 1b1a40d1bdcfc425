#include "mcs/verify/differential.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>

#include "mcs/analysis/amc_rta.hpp"
#include "mcs/analysis/core_util.hpp"
#include "mcs/analysis/dbf.hpp"
#include "mcs/analysis/edfvd.hpp"
#include "mcs/analysis/ge_test.hpp"
#include "mcs/analysis/placement.hpp"
#include "mcs/gen/rng.hpp"
#include "mcs/io/taskset_io.hpp"
#include "mcs/partition/fp_amc.hpp"
#include "mcs/partition/registry.hpp"
#include "mcs/sim/scenario.hpp"

namespace mcs::verify {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative comparison that treats two infinities of the same sign as equal.
bool close(double a, double b, double tol = 1e-9) {
  if (a == b) return true;  // covers +-inf and exact matches
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

CheckResult fail(std::string detail) {
  return CheckResult{false, std::move(detail)};
}

/// Rebuilds a core's UtilMatrix from scratch out of its member list.
UtilMatrix rebuild(const TaskSet& ts, const std::vector<std::size_t>& members) {
  UtilMatrix m(ts.num_levels());
  for (const std::size_t t : members) m.add(ts[t]);
  return m;
}

/// Compares an incrementally-maintained matrix against a from-scratch one.
/// Incremental remove is floating-point subtraction, so the comparison is
/// tolerance-based, not bitwise.
bool matrices_agree(const UtilMatrix& incremental, const UtilMatrix& scratch,
                    std::string& why) {
  if (incremental.size() != scratch.size()) {
    why = "task count mismatch";
    return false;
  }
  for (Level j = 1; j <= scratch.num_levels(); ++j) {
    for (Level k = 1; k <= j; ++k) {
      if (!close(incremental.level_util(j, k), scratch.level_util(j, k))) {
        std::ostringstream os;
        os << "U_" << j << "(" << k << ") " << incremental.level_util(j, k)
           << " vs " << scratch.level_util(j, k);
        why = os.str();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

CheckResult check_engine_consistency(const TaskSet& ts, std::size_t num_cores,
                                     std::uint64_t seed) {
  analysis::PlacementEngine engine(ts, num_cores);
  std::vector<std::vector<std::size_t>> members(num_cores);
  std::vector<std::size_t> core_of(ts.size(), kUnassigned);
  gen::Rng rng(gen::derive_seed(seed, 0xE16));

  const auto naive_util = [&](std::size_t core) {
    return analysis::core_utilization(rebuild(ts, members[core]),
                                      analysis::ProbePolicy::kMinOverFeasible);
  };

  const auto verify_state = [&](const char* when) -> CheckResult {
    for (std::size_t m = 0; m < num_cores; ++m) {
      std::string why;
      if (!matrices_agree(engine.partition().utils_on(m),
                          rebuild(ts, members[m]), why)) {
        std::ostringstream os;
        os << "engine/" << when << ": core " << m << " matrix diverged ("
           << why << ")";
        return fail(os.str());
      }
      const double load = rebuild(ts, members[m]).own_level_sum();
      if (!close(engine.load(m), load)) {
        std::ostringstream os;
        os << "engine/" << when << ": core " << m << " load "
           << engine.load(m) << " vs scratch " << load;
        return fail(os.str());
      }
    }
    // The running min/max tracker vs. a direct scan of the cached utils.
    double max_u = 0.0;
    double min_u = kInf;
    for (std::size_t m = 0; m < num_cores; ++m) {
      max_u = std::max(max_u, engine.util(m));
      min_u = std::min(min_u, engine.util(m));
    }
    const double direct = max_u > 0.0 ? (max_u - min_u) / max_u : 0.0;
    if (!close(engine.imbalance(), direct)) {
      std::ostringstream os;
      os << "engine/" << when << ": imbalance " << engine.imbalance()
         << " vs direct " << direct;
      return fail(os.str());
    }
    return {};
  };

  const std::size_t steps = 4 * ts.size() + 8;
  for (std::size_t step = 0; step < steps; ++step) {
    // Occasionally tear a task back out (exercises remove + stale-cache
    // repair, the path CA-TPA-R uses).
    if (engine.partition().assigned_count() > 0 && rng.bernoulli(0.25)) {
      std::size_t t = rng.uniform_int(0, ts.size() - 1);
      while (core_of[t] == kUnassigned) t = (t + 1) % ts.size();
      const std::size_t m = core_of[t];
      engine.uncommit(t);
      std::erase(members[m], t);
      core_of[t] = kUnassigned;
      engine.set_util(m, naive_util(m));
      if (CheckResult r = verify_state("uncommit"); !r.ok) return r;
      continue;
    }
    if (engine.partition().assigned_count() == ts.size()) break;
    std::size_t t = rng.uniform_int(0, ts.size() - 1);
    while (core_of[t] != kUnassigned) t = (t + 1) % ts.size();
    const std::size_t m = rng.uniform_int(0, num_cores - 1);

    // Reference probe: the allocation-per-call free function, evaluated on
    // the engine's own partition state.  (A freshly rebuilt mirror would
    // carry a different floating-point summation history, and near the
    // theta <= mu boundary that genuinely flips feasibility — the
    // incremental-vs-scratch comparison is the tolerance-based one in
    // verify_state.)
    const Partition& ref = engine.partition();
    const analysis::ProbePolicy policies[] = {
        analysis::ProbePolicy::kFirstFeasible,
        analysis::ProbePolicy::kMinOverFeasible,
        analysis::ProbePolicy::kMaxOverFeasible};
    for (const analysis::ProbePolicy policy : policies) {
      const analysis::ProbeResult a = engine.probe(t, m, policy);
      const analysis::ProbeResult b =
          analysis::probe_assignment(ref, t, m, engine.util(m), policy);
      if (a.feasible != b.feasible || !close(a.new_util, b.new_util) ||
          !close(a.increment, b.increment)) {
        std::ostringstream os;
        os << "engine/probe: task " << t << " core " << m << " policy "
           << static_cast<int>(policy) << ": engine {" << a.feasible << ", "
           << a.new_util << ", " << a.increment << "} vs reference {"
           << b.feasible << ", " << b.new_util << ", " << b.increment << "}";
        return fail(os.str());
      }
    }

    // probe_fits vs. an independent basic/improved evaluation of the same
    // hypothetical matrix (same FP state, so any disagreement is logic).
    UtilMatrix hyp = engine.partition().utils_on(m);
    hyp.add(ts[t]);
    const bool fits_scratch = analysis::basic_test(hyp) ||
                              analysis::improved_test(hyp).schedulable;
    if (engine.probe_fits(t, m) != fits_scratch) {
      std::ostringstream os;
      os << "engine/probe_fits: task " << t << " core " << m
         << " disagrees with from-scratch test (" << !fits_scratch
         << " expected " << fits_scratch << ")";
      return fail(os.str());
    }

    const analysis::ProbeResult decide =
        engine.probe(t, m, analysis::ProbePolicy::kMinOverFeasible);
    if (decide.feasible && rng.bernoulli(0.8)) {
      engine.commit(t, m, decide.new_util);
      members[m].push_back(t);
      core_of[t] = m;
      // The cached utilization must equal the core utilization recomputed
      // from the now-committed matrix (identical FP history to the probe's
      // scratch, so this comparison is exact-by-construction).
      const double recomputed = analysis::core_utilization(
          engine.partition().utils_on(m),
          analysis::ProbePolicy::kMinOverFeasible);
      if (!close(engine.util(m), recomputed)) {
        std::ostringstream os;
        os << "engine/commit: core " << m << " cached util " << engine.util(m)
           << " vs recomputed " << recomputed;
        return fail(os.str());
      }
      if (CheckResult r = verify_state("commit"); !r.ok) return r;
    }
  }
  return {};
}

CheckResult check_test_dominance(const TaskSet& ts, std::uint64_t seed) {
  gen::Rng rng(gen::derive_seed(seed, 0xD0));
  // The whole set first, then random subsets.
  for (std::size_t round = 0; round < 16; ++round) {
    UtilMatrix m(ts.num_levels());
    std::vector<std::size_t> picked_members;
    std::size_t picked = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (round == 0 || rng.bernoulli(0.4)) {
        m.add(ts[i]);
        picked_members.push_back(i);
        ++picked;
      }
    }
    if (picked == 0) continue;
    const bool basic = analysis::basic_test(m);
    const analysis::Theorem1Result improved = analysis::improved_test(m);
    if (basic && !improved.schedulable) {
      std::ostringstream os;
      os << "dominance: Eq.(4) accepts a " << picked
         << "-task subset Theorem 1 rejects (round " << round << ")";
      return fail(os.str());
    }
    if (ts.num_levels() == 2 &&
        analysis::dual_test(m) != improved.schedulable) {
      std::ostringstream os;
      os << "dominance: Eq.(7) and Theorem 1 disagree on a " << picked
         << "-task dual-criticality subset (round " << round << ")";
      return fail(os.str());
    }
    // The GE test's credited curves lower-bound the dbf.hpp curves at equal
    // scales and its candidate list is a superset, so every DBF acceptance
    // must be a GE acceptance.  The demand scans are costly, so only the
    // first few rounds race them.
    if (ts.num_levels() == 2 && round < 4) {
      if (analysis::dbf_dual_test(ts, picked_members).schedulable &&
          !analysis::ge_dual_test(ts, picked_members).schedulable) {
        std::ostringstream os;
        os << "dominance: the DBF test accepts a " << picked
           << "-task subset the GE test rejects (round " << round << ")";
        return fail(os.str());
      }
    }
  }
  return {};
}

CheckResult check_scheme_claims(const TaskSet& ts, std::size_t num_cores) {
  // The EDF-VD line-up: claimed success means every core passes the gating
  // Eq.(4)-or-Theorem-1 test recomputed from scratch.
  std::vector<std::string> names = {"WFD",      "FFD",    "BFD",   "Hybrid",
                                    "CA-TPA",   "CA-TPA-R", "UD-TPA"};
  if (ts.num_levels() == 2) {
    names.emplace_back("FP-AMC");
    names.emplace_back("DBF-FFD");
    names.emplace_back("GE-FFD");
    names.emplace_back("UD-TPA/ge");
  }
  for (const std::string& name : names) {
    const auto scheme = partition::make_scheme_spec(name);
    const partition::PartitionResult result = scheme->run(ts, num_cores);
    if (!result.success) {
      if (result.partition.complete()) {
        return fail("claims: " + name +
                    " reported failure with a complete partition");
      }
      if (!result.failed_task.has_value()) {
        return fail("claims: " + name + " reported failure without a "
                    "failed task");
      }
      continue;
    }
    if (!result.partition.complete()) {
      return fail("claims: " + name +
                  " claimed success with an incomplete partition");
    }
    // Structural invariant: core_of and tasks_on must be two views of the
    // same assignment.
    for (std::size_t m = 0; m < num_cores; ++m) {
      for (const std::size_t t : result.partition.tasks_on(m)) {
        if (result.partition.core_of(t) != m) {
          return fail("claims: " + name + " partition views disagree");
        }
      }
    }
    for (std::size_t m = 0; m < num_cores; ++m) {
      const std::vector<std::size_t>& members = result.partition.tasks_on(m);
      if (members.empty()) continue;
      bool core_ok = true;
      if (name == "FP-AMC") {
        // DM is the partitioner's default assignment; Audsley dominates DM,
        // so a DM-accepted core must also pass the from-scratch DM test.
        core_ok = analysis::amc_rtb_test(ts, members).schedulable;
      } else if (name == "DBF-FFD") {
        core_ok = analysis::dbf_dual_test(ts, members).schedulable;
      } else if (name == "GE-FFD" || name == "UD-TPA/ge") {
        core_ok = analysis::ge_dual_test(ts, members).schedulable;
      } else {
        const UtilMatrix m_scratch = rebuild(ts, members);
        core_ok = analysis::basic_test(m_scratch) ||
                  analysis::improved_test(m_scratch).schedulable;
      }
      if (!core_ok) {
        std::ostringstream os;
        os << "claims: " << name << " claimed success but core " << m << " ("
           << members.size() << " tasks) fails the from-scratch analysis";
        return fail(os.str());
      }
    }
  }
  return {};
}

CheckResult check_io_roundtrip(const TaskSet& ts, std::size_t num_cores,
                               std::uint64_t seed) {
  std::ostringstream out;
  io::write_taskset(out, ts);
  std::istringstream in(out.str());
  const TaskSet parsed = io::read_taskset(in);
  if (parsed.size() != ts.size()) {
    return fail("io: task count changed across round-trip");
  }
  if (parsed.num_levels() != ts.num_levels()) {
    return fail("io: K changed across round-trip");
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!(parsed[i] == ts[i])) {
      std::ostringstream os;
      os << "io: task " << ts[i].id()
         << " not bit-identical across round-trip";
      return fail(os.str());
    }
  }

  // A random partial partition (unassigned tasks stay unassigned).
  gen::Rng rng(gen::derive_seed(seed, 0x10));
  Partition partition(ts, num_cores);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (rng.bernoulli(0.8)) {
      partition.assign(i, rng.uniform_int(0, num_cores - 1));
    }
  }
  std::ostringstream pout;
  io::write_partition(pout, partition);
  std::istringstream pin(pout.str());
  const Partition reparsed = io::read_partition(pin, ts);
  if (reparsed.num_cores() != partition.num_cores()) {
    return fail("io: core count changed across partition round-trip");
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (reparsed.core_of(i) != partition.core_of(i)) {
      std::ostringstream os;
      os << "io: task " << ts[i].id() << " assignment changed across "
         << "partition round-trip";
      return fail(os.str());
    }
  }
  return {};
}

CheckResult run_differential(const TaskSet& ts, std::size_t num_cores,
                             std::uint64_t seed) {
  if (CheckResult r = check_engine_consistency(ts, num_cores, seed); !r.ok) {
    return r;
  }
  if (CheckResult r = check_test_dominance(ts, seed); !r.ok) return r;
  return check_scheme_claims(ts, num_cores);
}

namespace {

const char* kind_name(sim::EventKind kind) {
  switch (kind) {
    case sim::EventKind::kRelease: return "Release";
    case sim::EventKind::kReleaseSuppressed: return "ReleaseSuppressed";
    case sim::EventKind::kComplete: return "Complete";
    case sim::EventKind::kModeSwitch: return "ModeSwitch";
    case sim::EventKind::kJobDropped: return "JobDropped";
    case sim::EventKind::kDeadlineMiss: return "DeadlineMiss";
    case sim::EventKind::kIdleReset: return "IdleReset";
    case sim::EventKind::kExecute: return "Execute";
  }
  return "?";
}

std::string event_str(const sim::TraceEvent& e) {
  std::ostringstream os;
  os << std::setprecision(17) << kind_name(e.kind) << "{t=" << e.time
     << " core=" << e.core << " task=" << e.task << " job=" << e.job
     << " mode=" << e.mode << " dl=" << e.deadline << " until=" << e.until
     << "}";
  return os.str();
}

bool events_equal(const sim::TraceEvent& a, const sim::TraceEvent& b) {
  return a.time == b.time && a.core == b.core && a.kind == b.kind &&
         a.task == b.task && a.job == b.job && a.mode == b.mode &&
         a.deadline == b.deadline && a.until == b.until;
}

/// Compares one uint64 CoreStats/TaskSimStats field, naming it on mismatch.
template <typename T>
bool field_diff(std::ostringstream& os, const char* name, const T& fast,
                const T& ref) {
  if (fast == ref) return false;
  os << name << " " << std::setprecision(17) << fast << " vs " << ref;
  return true;
}

}  // namespace

CheckResult compare_sim_runs(const sim::SimResult& fast,
                             const sim::SimResult& ref,
                             const std::vector<sim::TraceEvent>& fast_trace,
                             const std::vector<sim::TraceEvent>& ref_trace) {
  // Traces first: a stats divergence almost always shows up earlier and
  // more precisely as the first differing event.
  const std::size_t n = std::min(fast_trace.size(), ref_trace.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!events_equal(fast_trace[i], ref_trace[i])) {
      std::ostringstream os;
      os << "parity: trace event " << i << " differs: fast "
         << event_str(fast_trace[i]) << " vs ref " << event_str(ref_trace[i]);
      return fail(os.str());
    }
  }
  if (fast_trace.size() != ref_trace.size()) {
    std::ostringstream os;
    os << "parity: trace length " << fast_trace.size() << " vs "
       << ref_trace.size() << "; first extra event "
       << event_str(fast_trace.size() > ref_trace.size() ? fast_trace[n]
                                                         : ref_trace[n]);
    return fail(os.str());
  }

  if (fast.horizon != ref.horizon) {
    std::ostringstream os;
    os << "parity: horizon " << std::setprecision(17) << fast.horizon
       << " vs " << ref.horizon;
    return fail(os.str());
  }

  if (fast.misses.size() != ref.misses.size()) {
    std::ostringstream os;
    os << "parity: miss count " << fast.misses.size() << " vs "
       << ref.misses.size();
    return fail(os.str());
  }
  for (std::size_t i = 0; i < fast.misses.size(); ++i) {
    const sim::DeadlineMiss& a = fast.misses[i];
    const sim::DeadlineMiss& b = ref.misses[i];
    std::ostringstream os;
    if (field_diff(os, "core", a.core, b.core) ||
        field_diff(os, "task", a.task, b.task) ||
        field_diff(os, "job", a.job, b.job) ||
        field_diff(os, "deadline", a.deadline, b.deadline) ||
        field_diff(os, "detected_at", a.detected_at, b.detected_at) ||
        field_diff(os, "mode", a.mode, b.mode)) {
      return fail("parity: miss " + std::to_string(i) + ": " + os.str());
    }
  }

  if (fast.cores.size() != ref.cores.size()) {
    std::ostringstream os;
    os << "parity: core count " << fast.cores.size() << " vs "
       << ref.cores.size();
    return fail(os.str());
  }
  for (std::size_t m = 0; m < fast.cores.size(); ++m) {
    const sim::CoreStats& a = fast.cores[m];
    const sim::CoreStats& b = ref.cores[m];
    std::ostringstream os;
    if (field_diff(os, "max_mode", a.max_mode, b.max_mode) ||
        field_diff(os, "mode_switches", a.mode_switches, b.mode_switches) ||
        field_diff(os, "jobs_released", a.jobs_released, b.jobs_released) ||
        field_diff(os, "jobs_degraded", a.jobs_degraded, b.jobs_degraded) ||
        field_diff(os, "jobs_completed", a.jobs_completed,
                   b.jobs_completed) ||
        field_diff(os, "jobs_dropped", a.jobs_dropped, b.jobs_dropped) ||
        field_diff(os, "releases_suppressed", a.releases_suppressed,
                   b.releases_suppressed) ||
        field_diff(os, "idle_resets", a.idle_resets, b.idle_resets) ||
        field_diff(os, "preemptions", a.preemptions, b.preemptions)) {
      return fail("parity: core " + std::to_string(m) + ": " + os.str());
    }
    if (a.mode_residency != b.mode_residency) {
      return fail("parity: core " + std::to_string(m) +
                  ": mode_residency differs");
    }
  }

  if (fast.tasks.size() != ref.tasks.size()) {
    std::ostringstream os;
    os << "parity: task stats count " << fast.tasks.size() << " vs "
       << ref.tasks.size();
    return fail(os.str());
  }
  for (std::size_t t = 0; t < fast.tasks.size(); ++t) {
    const sim::TaskSimStats& a = fast.tasks[t];
    const sim::TaskSimStats& b = ref.tasks[t];
    std::ostringstream os;
    if (field_diff(os, "released", a.released, b.released) ||
        field_diff(os, "degraded", a.degraded, b.degraded) ||
        field_diff(os, "completed", a.completed, b.completed) ||
        field_diff(os, "dropped", a.dropped, b.dropped) ||
        field_diff(os, "suppressed", a.suppressed, b.suppressed) ||
        field_diff(os, "missed", a.missed, b.missed) ||
        field_diff(os, "max_response", a.max_response, b.max_response) ||
        field_diff(os, "sum_response", a.sum_response, b.sum_response)) {
      return fail("parity: task " + std::to_string(t) + ": " + os.str());
    }
  }
  return {};
}

CheckResult check_engine_parity(const TaskSet& ts, std::size_t num_cores,
                                std::uint64_t seed) {
  gen::Rng rng(gen::derive_seed(seed, 0xEA127));
  constexpr std::size_t kRounds = 6;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // A random partial partition — parity must hold on incomplete and
    // overloaded placements too, not just feasible ones.
    Partition partition(ts, num_cores);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (rng.bernoulli(0.85)) {
        partition.assign(i, rng.uniform_int(0, num_cores - 1));
      }
    }

    sim::SimConfig cfg;
    if (rng.bernoulli(0.3)) {
      cfg.scheduler = sim::SchedulerKind::kFixedPriority;
      if (rng.bernoulli(0.5)) {
        // Explicit ranks drawn from a small pool so duplicates are common:
        // the FP tie-break (rank, task, number) must be engine-independent.
        cfg.fp_priorities.resize(ts.size());
        const std::size_t pool = 1 + ts.size() / 2;
        for (std::size_t i = 0; i < ts.size(); ++i) {
          cfg.fp_priorities[i] = rng.uniform_int(0, pool - 1);
        }
      }
    }
    cfg.use_virtual_deadlines = !rng.bernoulli(0.25);
    if (rng.bernoulli(0.3)) cfg.dual_scale_override = rng.uniform(0.5, 1.0);
    if (rng.bernoulli(0.4)) {
      cfg.sporadic_jitter = rng.uniform(0.05, 0.5);
      cfg.arrival_seed = gen::derive_seed(seed, round * 0x9E37ULL + 1);
    }
    if (rng.bernoulli(0.3)) {
      cfg.degraded_period_stretch = rng.uniform(1.2, 2.5);
    }
    cfg.idle_reset = !rng.bernoulli(0.3);
    cfg.stop_core_on_miss = rng.bernoulli(0.5);
    // Keep fuzz rounds bounded: the exact hyperperiod only when it is
    // small, else an explicit modest horizon.
    const std::optional<double> hp = sim::integral_hyperperiod(ts);
    if (hp.has_value() && *hp <= 5000.0 && rng.bernoulli(0.5)) {
      cfg.use_hyperperiod_horizon = true;
    } else {
      cfg.horizon = rng.uniform(50.0, 400.0);
    }

    const sim::RandomScenario scenario(
        gen::derive_seed(seed, round ^ 0x5CE7A12ULL), rng.uniform(0.0, 0.35));

    sim::SimConfig cfg_fast = cfg;
    cfg_fast.engine = sim::EngineKind::kEventCalendar;
    sim::SimConfig cfg_ref = cfg;
    cfg_ref.engine = sim::EngineKind::kReference;

    sim::RecordingTraceSink fast_sink;
    sim::RecordingTraceSink ref_sink;
    const sim::SimResult fast =
        sim::simulate(partition, scenario, cfg_fast, &fast_sink);
    const sim::SimResult ref =
        sim::simulate(partition, scenario, cfg_ref, &ref_sink);
    if (CheckResult r = compare_sim_runs(fast, ref, fast_sink.events(),
                                         ref_sink.events());
        !r.ok) {
      r.detail += " (round " + std::to_string(round) + ")";
      return r;
    }
  }
  return {};
}

namespace {

/// Strict bitwise double equality (== would conflate +0.0 and -0.0).
bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

CheckResult check_probe_parity(const TaskSet& ts, std::size_t num_cores,
                               std::uint64_t seed) {
  analysis::PlacementEngine engine(ts, num_cores);
  gen::Rng rng(gen::derive_seed(seed, 0xBA7C4));
  std::vector<std::size_t> core_of(ts.size(), kUnassigned);
  std::vector<analysis::ProbeResult> batched(num_cores);
  std::vector<unsigned char> mask(num_cores, 0);

  // Drives the raw 2-D kernel over the engine's own planes for the
  // forced-backend check.
  analysis::BatchProbeScratch scratch2d;

  // Compares every batched API against num_cores() scalar probes for one
  // task on the CURRENT engine state.  Scalar and batched results must be
  // bitwise identical — not merely close — and each batched call must count
  // exactly num_cores() probes.
  const auto compare_task = [&](std::size_t t) -> CheckResult {
    const analysis::ProbePolicy policies[] = {
        analysis::ProbePolicy::kFirstFeasible,
        analysis::ProbePolicy::kMinOverFeasible,
        analysis::ProbePolicy::kMaxOverFeasible};
    for (const analysis::ProbePolicy policy : policies) {
      const std::size_t before = engine.probes();
      engine.probe_all_cores(t, policy, batched);
      if (engine.probes() != before + num_cores) {
        std::ostringstream os;
        os << "probe_all_cores accounting: probes() advanced by "
           << engine.probes() - before << ", expected " << num_cores;
        return fail(os.str());
      }
      for (std::size_t m = 0; m < num_cores; ++m) {
        const analysis::ProbeResult scalar = engine.probe(t, m, policy);
        if (scalar.feasible != batched[m].feasible ||
            !bits_equal(scalar.new_util, batched[m].new_util) ||
            !bits_equal(scalar.increment, batched[m].increment)) {
          std::ostringstream os;
          os << std::setprecision(17) << "probe_all_cores: task " << t
             << " core " << m << " policy " << static_cast<int>(policy)
             << ": batched {" << batched[m].feasible << ", "
             << batched[m].new_util << ", " << batched[m].increment
             << "} vs scalar {" << scalar.feasible << ", " << scalar.new_util
             << ", " << scalar.increment << "}";
          return fail(os.str());
        }
      }
    }
    {
      const std::size_t before = engine.probes();
      engine.probe_fits_all(t, mask);
      if (engine.probes() != before + num_cores) {
        return fail("probe_fits_all accounting: expected num_cores() probes");
      }
      for (std::size_t m = 0; m < num_cores; ++m) {
        if ((mask[m] != 0) != engine.probe_fits(t, m)) {
          std::ostringstream os;
          os << "probe_fits_all: task " << t << " core " << m << " mask "
             << static_cast<int>(mask[m]) << " disagrees with scalar";
          return fail(os.str());
        }
      }
    }
    {
      const std::size_t before = engine.probes();
      engine.probe_fits_basic_all(t, mask);
      if (engine.probes() != before + num_cores) {
        return fail(
            "probe_fits_basic_all accounting: expected num_cores() probes");
      }
      for (std::size_t m = 0; m < num_cores; ++m) {
        if ((mask[m] != 0) != engine.probe_fits_basic(t, m)) {
          std::ostringstream os;
          os << "probe_fits_basic_all: task " << t << " core " << m
             << " mask " << static_cast<int>(mask[m])
             << " disagrees with scalar";
          return fail(os.str());
        }
      }
    }
    return {};
  };

  // 2-D trials: a random task list (random T, duplicates allowed, tile-tail
  // sizes included) probed against all cores in one task x core call.  Every
  // row must be bitwise identical to the scalar per-core probes, the call
  // must charge exactly T x num_cores() probes, and the forced-scalar
  // kernel must reproduce the active (possibly SIMD) backend bit for bit.
  std::vector<std::size_t> tile_tasks;
  std::vector<analysis::ProbeResult> batched2d;
  std::vector<double> util2d;
  std::vector<double> util2d_scalar;
  std::vector<unsigned char> mask2d;
  const auto compare_tile = [&]() -> CheckResult {
    const std::size_t T =
        rng.uniform_int(1, std::min<std::size_t>(ts.size(), 17));
    tile_tasks.clear();
    for (std::size_t i = 0; i < T; ++i) {
      tile_tasks.push_back(rng.uniform_int(0, ts.size() - 1));
    }
    batched2d.resize(T * num_cores);
    mask2d.resize(T * num_cores);
    const analysis::ProbePolicy policies[] = {
        analysis::ProbePolicy::kFirstFeasible,
        analysis::ProbePolicy::kMinOverFeasible,
        analysis::ProbePolicy::kMaxOverFeasible};
    for (const analysis::ProbePolicy policy : policies) {
      const std::size_t before = engine.probes();
      engine.probe_all_cores_2d(tile_tasks, policy,
                                std::span<analysis::ProbeResult>(batched2d));
      if (engine.probes() != before + T * num_cores) {
        std::ostringstream os;
        os << "probe_all_cores_2d accounting: probes() advanced by "
           << engine.probes() - before << ", expected " << T * num_cores;
        return fail(os.str());
      }
      for (std::size_t i = 0; i < T; ++i) {
        for (std::size_t m = 0; m < num_cores; ++m) {
          const analysis::ProbeResult& got = batched2d[i * num_cores + m];
          const analysis::ProbeResult scalar =
              engine.probe(tile_tasks[i], m, policy);
          if (scalar.feasible != got.feasible ||
              !bits_equal(scalar.new_util, got.new_util) ||
              !bits_equal(scalar.increment, got.increment)) {
            std::ostringstream os;
            os << std::setprecision(17) << "probe_all_cores_2d: row " << i
               << " (task " << tile_tasks[i] << ") core " << m << " policy "
               << static_cast<int>(policy) << ": 2-D {" << got.feasible
               << ", " << got.new_util << ", " << got.increment
               << "} vs scalar {" << scalar.feasible << ", "
               << scalar.new_util << ", " << scalar.increment << "}";
            return fail(os.str());
          }
        }
      }
    }
    {
      const std::size_t before = engine.probes();
      engine.probe_fits_all_2d(tile_tasks,
                               std::span<unsigned char>(mask2d));
      if (engine.probes() != before + T * num_cores) {
        return fail("probe_fits_all_2d accounting: expected T x cores");
      }
      for (std::size_t i = 0; i < T; ++i) {
        for (std::size_t m = 0; m < num_cores; ++m) {
          if ((mask2d[i * num_cores + m] != 0) !=
              engine.probe_fits(tile_tasks[i], m)) {
            std::ostringstream os;
            os << "probe_fits_all_2d: row " << i << " (task " << tile_tasks[i]
               << ") core " << m << " disagrees with scalar";
            return fail(os.str());
          }
        }
      }
    }
    {
      const std::size_t before = engine.probes();
      engine.probe_fits_basic_all_2d(tile_tasks,
                                     std::span<unsigned char>(mask2d));
      if (engine.probes() != before + T * num_cores) {
        return fail("probe_fits_basic_all_2d accounting: expected T x cores");
      }
      for (std::size_t i = 0; i < T; ++i) {
        for (std::size_t m = 0; m < num_cores; ++m) {
          if ((mask2d[i * num_cores + m] != 0) !=
              engine.probe_fits_basic(tile_tasks[i], m)) {
            std::ostringstream os;
            os << "probe_fits_basic_all_2d: row " << i << " (task "
               << tile_tasks[i] << ") core " << m
               << " disagrees with scalar";
            return fail(os.str());
          }
        }
      }
    }
    // SIMD-vs-scalar: re-run one 2-D utilization pass with the kernel forced
    // to the scalar backend; the lane-ops contract promises bitwise equality.
    if (std::string_view(analysis::batch_probe_backend()) != "scalar") {
      util2d.resize(T * num_cores);
      util2d_scalar.resize(T * num_cores);
      analysis::batch_core_utilization_2d(
          engine.partition().planes(), ts, tile_tasks,
          analysis::ProbePolicy::kMinOverFeasible, scratch2d, util2d.data());
      if (!analysis::set_batch_probe_backend("scalar")) {
        return fail("set_batch_probe_backend(scalar) refused");
      }
      analysis::batch_core_utilization_2d(
          engine.partition().planes(), ts, tile_tasks,
          analysis::ProbePolicy::kMinOverFeasible, scratch2d,
          util2d_scalar.data());
      if (!analysis::set_batch_probe_backend("auto")) {
        return fail("set_batch_probe_backend(auto) refused");
      }
      for (std::size_t i = 0; i < T * num_cores; ++i) {
        if (!bits_equal(util2d[i], util2d_scalar[i])) {
          std::ostringstream os;
          os << std::setprecision(17) << "2-D SIMD/scalar divergence at lane "
             << i << ": " << util2d[i] << " vs " << util2d_scalar[i]
             << " (backend " << analysis::batch_probe_backend() << ")";
          return fail(os.str());
        }
      }
    }
    return {};
  };

  // Random placement workout: probe-parity must hold on empty, partially
  // filled, overloaded and churned (uncommit/relocate) plane states alike.
  const std::size_t steps = 3 * ts.size() + 8;
  for (std::size_t step = 0; step < steps; ++step) {
    const std::size_t t = rng.uniform_int(0, ts.size() - 1);
    if (CheckResult r = compare_task(t); !r.ok) return r;
    if (step % 4 == 0) {
      if (CheckResult r = compare_tile(); !r.ok) return r;
    }

    if (core_of[t] == kUnassigned) {
      // Place it somewhere, feasible or not: parity must hold on
      // overloaded cores too.
      const std::size_t m = rng.uniform_int(0, num_cores - 1);
      engine.commit(t, m);
      core_of[t] = m;
    } else if (rng.bernoulli(0.5) && num_cores > 1) {
      const std::size_t m = rng.uniform_int(0, num_cores - 1);
      engine.relocate(t, m);
      core_of[t] = m;
    } else {
      engine.uncommit(t);
      core_of[t] = kUnassigned;
    }
  }
  return {};
}

}  // namespace mcs::verify
