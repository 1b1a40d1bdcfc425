#include "mcs/verify/fuzzer.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "mcs/gen/taskset_generator.hpp"
#include "mcs/obs/flight_recorder.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/partition/registry.hpp"
#include "mcs/util/table.hpp"
#include "mcs/util/thread_pool.hpp"
#include "mcs/verify/corpus.hpp"
#include "mcs/verify/differential.hpp"
#include "mcs/verify/oracle.hpp"

namespace mcs::verify {

namespace {

/// Everything a trial does is derived from these, which in turn are derived
/// from (base seed, trial index) alone.
struct TrialParams {
  gen::GenParams gp;
  std::string scheme;
  bool integral_periods = false;
  std::uint64_t case_seed = 0;   ///< oracle / differential / io seed
  std::uint64_t gen_seed = 0;    ///< taskset generator seed
};

TrialParams draw_params(std::uint64_t seed, std::uint64_t trial) {
  gen::Rng rng(gen::derive_seed(seed, trial));
  TrialParams p;
  p.gp.num_cores = 1 + rng.uniform_int(0, 3);
  p.gp.num_levels = static_cast<Level>(1 + rng.uniform_int(0, 4));
  // Small sets keep simulation and shrinking cheap while still covering the
  // multi-core interactions; the short periods bound the 20x horizon.
  p.gp.num_tasks = 3 + rng.uniform_int(0, 21);
  p.gp.nsu = rng.uniform(0.35, 0.95);
  p.gp.ifc = rng.uniform(0.2, 1.0);
  p.gp.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};
  std::vector<std::string> pool = {"CA-TPA", "CA-TPA-R", "FFD",   "BFD",
                                   "WFD",    "Hybrid",   "UD-TPA"};
  if (p.gp.num_levels == 2) {
    pool.emplace_back("FP-AMC");
    pool.emplace_back("DBF-FFD");
    pool.emplace_back("GE-FFD");
    pool.emplace_back("UD-TPA/ge");
  }
  p.scheme = pool[rng.uniform_int(0, pool.size() - 1)];
  // Integral periods open the exact-hyperperiod oracle family.
  p.integral_periods = rng.bernoulli(0.35);
  p.case_seed = gen::derive_seed(seed, trial ^ 0xACEDULL);
  p.gen_seed = gen::derive_seed(seed, 0x9e0b5ULL);
  return p;
}

/// Rounds every period up to an integer (WCETs stay within the old, smaller
/// period, so tasks remain well-formed).
TaskSet integralize(const TaskSet& ts) {
  std::vector<McTask> tasks;
  tasks.reserve(ts.size());
  for (const McTask& t : ts) {
    tasks.emplace_back(t.id(), t.wcets(), std::ceil(t.period()));
  }
  return TaskSet(std::move(tasks), ts.num_levels());
}

FuzzCase make_case(const TrialParams& p, std::uint64_t trial) {
  TaskSet ts = gen::generate_trial(p.gp, p.gen_seed, trial);
  if (p.integral_periods) ts = integralize(ts);
  return FuzzCase{std::move(ts), p.gp.num_cores};
}

/// The per-target failure predicate (also the shrinker's).  Returns the
/// failure detail, or empty when the case is clean.
std::string check_case(FuzzTarget target, const FuzzCase& c,
                       const std::string& scheme, std::uint64_t case_seed) {
  switch (target) {
    case FuzzTarget::kIo: {
      const CheckResult r = check_io_roundtrip(c.ts, c.num_cores, case_seed);
      return r.ok ? std::string() : r.detail;
    }
    case FuzzTarget::kDifferential: {
      const CheckResult r = run_differential(c.ts, c.num_cores, case_seed);
      return r.ok ? std::string() : r.detail;
    }
    case FuzzTarget::kEngineParity: {
      const CheckResult r = check_engine_parity(c.ts, c.num_cores, case_seed);
      return r.ok ? std::string() : r.detail;
    }
    case FuzzTarget::kProbeParity: {
      const CheckResult r = check_probe_parity(c.ts, c.num_cores, case_seed);
      return r.ok ? std::string() : r.detail;
    }
    case FuzzTarget::kSoundness: {
      const auto partitioner = partition::make_scheme_spec(scheme);
      const partition::PartitionResult result =
          partitioner->run(c.ts, c.num_cores);
      if (!result.success) return {};  // nothing was promised
      const SoundnessOracle oracle(
          options_for_scheme(scheme, result.partition, case_seed));
      const OracleVerdict verdict = oracle.check(result.partition);
      return verdict.sound ? std::string()
                           : scheme + ": " + verdict.describe();
    }
  }
  return {};
}

/// Shrinks the failing case of `trial` (see detail::recheck_then_shrink).
Finding shrink_finding(const FuzzOptions& options, const TrialParams& p,
                       std::uint64_t trial, std::string failure) {
  FuzzCase original = make_case(p, trial);
  const std::size_t original_tasks = original.ts.size();
  detail::Rechecked rechecked = detail::recheck_then_shrink(
      std::move(original),
      [&](const FuzzCase& candidate) {
        return !check_case(options.target, candidate, p.scheme, p.case_seed)
                    .empty();
      },
      options.shrink);
  return Finding{
      trial,
      std::move(failure),
      options.target == FuzzTarget::kSoundness ? p.scheme : std::string{},
      std::move(rechecked.shrunk.minimized),
      original_tasks,
      rechecked.shrunk.steps,
      rechecked.shrunk.attempts,
      std::string{},
      std::string{},
      rechecked.failed_again};
}

/// " (did not fail again on re-check; kept unshrunk)" for such a finding.
std::string recheck_note(const Finding& finding) {
  return finding.failed_again
             ? std::string{}
             : std::string{" (did not fail again on re-check; kept unshrunk)"};
}

void save_finding(const FuzzOptions& options, Finding& finding) {
  if (options.corpus_dir.empty()) return;
  std::ostringstream path;
  path << options.corpus_dir << '/' << target_name(options.target) << "_seed"
       << options.seed << "_trial" << finding.trial << ".mcs";
  CorpusMeta meta;
  meta.target = target_name(options.target);
  meta.scheme = finding.scheme.empty() ? "CA-TPA" : finding.scheme;
  meta.num_cores = finding.shrunk.num_cores;
  meta.seed = draw_params(options.seed, finding.trial).case_seed;
  std::ostringstream note;
  note << "found by mcs_fuzz --target=" << target_name(options.target)
       << " --seed=" << options.seed << " (trial " << finding.trial << "); "
       << finding.detail << recheck_note(finding);
  meta.note = note.str();
  save_corpus_case(path.str(), CorpusCase{std::move(meta), finding.shrunk.ts});
  finding.corpus_path = path.str();
}

/// Re-runs the failing trial with span tracing enabled and dumps the trace
/// rings next to the corpus file, so every saved reproducer carries a
/// timeline of the placement/sim activity that led into the failure.  Runs
/// in the serial shrink phase, so the quiescence contract holds.
void record_flight(const FuzzOptions& options, Finding& finding) {
  if (options.corpus_dir.empty()) return;
  const obs::TraceEnabledGuard guard(true);
  obs::reset_trace();
  (void)run_trial(options.target, options.seed, finding.trial);
  std::ostringstream tag;
  tag << target_name(options.target) << "_seed" << options.seed << "_trial"
      << finding.trial;
  finding.flight_path =
      obs::dump_flight_record(options.corpus_dir, tag.str(), finding.detail);
}

}  // namespace

namespace detail {

Rechecked recheck_then_shrink(FuzzCase original,
                              const FailurePredicate& still_fails,
                              const ShrinkOptions& options) {
  if (!still_fails(original)) {
    return Rechecked{ShrinkResult{std::move(original), 0, 0}, false};
  }
  return Rechecked{shrink(original, still_fails, options), true};
}

}  // namespace detail

FuzzTarget parse_target(const std::string& name) {
  if (name == "soundness") return FuzzTarget::kSoundness;
  if (name == "differential") return FuzzTarget::kDifferential;
  if (name == "io") return FuzzTarget::kIo;
  if (name == "engine-parity") return FuzzTarget::kEngineParity;
  if (name == "probe-parity") return FuzzTarget::kProbeParity;
  throw std::invalid_argument(
      "parse_target: unknown target '" + name +
      "' (soundness|differential|io|engine-parity|probe-parity)");
}

std::string target_name(FuzzTarget target) {
  switch (target) {
    case FuzzTarget::kSoundness:
      return "soundness";
    case FuzzTarget::kDifferential:
      return "differential";
    case FuzzTarget::kIo:
      return "io";
    case FuzzTarget::kEngineParity:
      return "engine-parity";
    case FuzzTarget::kProbeParity:
      return "probe-parity";
  }
  return "?";
}

std::string run_trial(FuzzTarget target, std::uint64_t seed,
                      std::uint64_t trial) {
  const TrialParams p = draw_params(seed, trial);
  return check_case(target, make_case(p, trial), p.scheme, p.case_seed);
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  if (options.budget_s <= 0.0 && options.max_trials == 0) {
    throw std::invalid_argument(
        "run_fuzz: need a positive budget or a trial cap");
  }
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  FuzzReport report;
  report.target = options.target;
  report.seed = options.seed;

  const std::size_t workers = options.threads != 0
                                  ? options.threads
                                  : util::default_thread_count();
  const std::uint64_t batch = std::max<std::uint64_t>(8 * workers, 32);
  std::uint64_t next_trial = 0;

  while (report.findings.size() < options.max_findings) {
    if (options.budget_s > 0.0 && elapsed() >= options.budget_s) break;
    std::uint64_t n = batch;
    if (options.max_trials != 0) {
      if (next_trial >= options.max_trials) break;
      n = std::min<std::uint64_t>(n, options.max_trials - next_trial);
    }
    // Failures are rare: record details in per-trial slots and shrink
    // afterwards, serially and in trial order, so reports are independent of
    // the parallel schedule.
    std::vector<std::string> failures(static_cast<std::size_t>(n));
    util::parallel_for(
        static_cast<std::size_t>(n),
        [&](std::size_t i) {
          failures[i] =
              run_trial(options.target, options.seed, next_trial + i);
        },
        options.threads);
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (failures[i].empty()) continue;
      if (report.findings.size() >= options.max_findings) break;
      const std::uint64_t trial = next_trial + i;
      const TrialParams p = draw_params(options.seed, trial);
      Finding finding =
          shrink_finding(options, p, trial, std::move(failures[i]));
      save_finding(options, finding);
      record_flight(options, finding);
      report.findings.push_back(std::move(finding));
    }
    next_trial += n;
    report.trials = next_trial;
  }
  report.elapsed_s = elapsed();
  return report;
}

std::string describe(const FuzzReport& report) {
  std::ostringstream os;
  util::Table table({"target", "seed", "trials", "trials/s", "findings",
                     "shrink steps", "elapsed (s)"});
  table.begin_row();
  table.add_cell(target_name(report.target));
  table.add_cell(std::to_string(report.seed));
  table.add_cell(static_cast<std::size_t>(report.trials));
  table.add_cell(report.trials_per_sec(), 1);
  table.add_cell(report.findings.size());
  std::size_t steps = 0;
  for (const Finding& f : report.findings) steps += f.shrink_steps;
  table.add_cell(steps);
  table.add_cell(report.elapsed_s, 2);
  table.print(os);
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    os << "\nfinding #" << i + 1 << " (trial " << f.trial;
    if (!f.scheme.empty()) os << ", scheme " << f.scheme;
    os << "): " << f.detail;
    if (f.failed_again) {
      os << "\n  shrunk " << f.original_tasks << " -> " << f.shrunk.ts.size()
         << " tasks (K=" << f.shrunk.ts.num_levels()
         << ", M=" << f.shrunk.num_cores << ") in " << f.shrink_steps
         << " steps / " << f.shrink_attempts << " attempts";
    } else {
      os << "\n  did not fail again on re-check; kept unshrunk ("
         << f.original_tasks << " tasks, K=" << f.shrunk.ts.num_levels()
         << ", M=" << f.shrunk.num_cores << ")";
    }
    if (!f.corpus_path.empty()) {
      os << "\n  reproducer: " << f.corpus_path << " (replay with "
         << "mcs_fuzz --replay <file>)";
    }
    if (!f.flight_path.empty()) {
      os << "\n  flight recording: " << f.flight_path;
    }
    os << "\n  reproduce: mcs_fuzz --target=" << target_name(report.target)
       << " --seed=" << report.seed << " --max-trials=" << f.trial + 1
       << " --budget-s=0";
  }
  return os.str();
}

}  // namespace mcs::verify
