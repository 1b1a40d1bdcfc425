#include "mcs/sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "mcs/gen/rng.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/sim/arrival_calendar.hpp"
#include "mcs/sim/job_pool.hpp"
#include "mcs/sim/ready_queue.hpp"

// Two kernels implement the same per-core event loop and are required to be
// bit-identical (same SimResult, same trace stream, same tie-breaks):
//
//   * ReferenceCoreSim -- the original loop: linear scans over a ready
//     vector for dispatch/earliest-deadline/next-arrival and O(n) erases.
//     Kept as the differential-testing baseline (EngineKind::kReference).
//   * FastCoreSim      -- the event-calendar kernel: dispatch and deadline
//     minima from sim::ReadyQueue's indexed heaps, next arrivals from
//     sim::ArrivalCalendar, erases by pooled handle.  O(log n) per event.
//
// The reference loop's observable tie-breaks that the fast kernel must
// reproduce exactly:
//   * dispatch order is the total order (deadline, task, number) under EDF
//     and (rank, task, number) under fixed priority;
//   * the deadline-miss victim is the first job with the minimal deadline
//     in ready-vector order, i.e. minimal (deadline, insertion seq);
//   * mode-switch drops are emitted in reverse insertion order (the
//     reference iterates its ready vector backwards);
//   * simultaneous arrivals release in member-index order.

namespace mcs::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// Shared protocol counters (incremented identically by both engines so
// experiment artifacts are engine-independent).
obs::Counter& g_mode_switches = obs::registry().counter("sim.mode_switches");
obs::Counter& g_deadline_checks =
    obs::registry().counter("sim.deadline_checks");
obs::Counter& g_deadline_misses =
    obs::registry().counter("sim.deadline_misses");
obs::Counter& g_jobs_dropped = obs::registry().counter("sim.jobs_dropped");

// Per-engine instruments (event-loop iteration counts, peak ready-queue
// depth) for before/after comparisons.
obs::Counter& g_ref_loop_iters =
    obs::registry().counter("sim.engine.reference.loop_iters");
obs::Counter& g_fast_loop_iters =
    obs::registry().counter("sim.engine.fast.loop_iters");
obs::Histogram& g_ref_ready_peak =
    obs::registry().histogram("sim.engine.reference.ready_peak");
obs::Histogram& g_fast_ready_peak =
    obs::registry().histogram("sim.engine.fast.ready_peak");

// Trace sites.  The per-core kernels sample the enable gate once per run
// (CoreSimBase::trace_armed_) so per-iteration sites like the calendar
// refill cost one predicted non-atomic branch while tracing is off.
constexpr obs::TraceSite kSimulateSite{"sim.simulate", "cores", "tasks"};
constexpr obs::TraceSite kRefRunSite{"sim.core_run.reference", "core",
                                     "members"};
constexpr obs::TraceSite kFastRunSite{"sim.core_run.fast", "core", "members"};
constexpr obs::TraceSite kModeSwitchSite{"sim.mode_switch", "core",
                                         "from_mode"};
constexpr obs::TraceSite kCalendarRefillSite{"sim.calendar_refill", "core",
                                             "due"};

/// Per-core state both kernels share: the member list, the deadline policy,
/// the fixed-priority rank table and the output sinks.  Centralizing the
/// deadline-scale and scenario-contract arithmetic here guarantees the two
/// engines compute identical doubles.
struct CoreEnv {
  const TaskSet& ts;
  const std::vector<std::size_t>& members;
  const ExecutionScenario& scenario;
  const SimConfig& cfg;
  TraceSink* sink;
  std::size_t core;
  analysis::DeadlinePolicy policy;
  std::vector<DeadlineMiss>& misses;
  std::vector<TaskSimStats>& task_stats;
  std::vector<std::size_t> fp_rank;

  CoreEnv(const Partition& partition, std::size_t core_index,
          const ExecutionScenario& scenario_in, const SimConfig& cfg_in,
          TraceSink* sink_in, std::vector<DeadlineMiss>& misses_in,
          std::vector<TaskSimStats>& task_stats_in)
      : ts(partition.taskset()),
        members(partition.tasks_on(core_index)),
        scenario(scenario_in),
        cfg(cfg_in),
        sink(sink_in),
        core(core_index),
        policy(partition.utils_on(core_index)),
        misses(misses_in),
        task_stats(task_stats_in) {
    // Priority ranks for fixed-priority mode (lower rank = higher
    // priority): an explicit assignment when provided, else deadline
    // monotonic.  Under EDF with no explicit assignment the table is never
    // read, so the O(N) fill + member sort is skipped — a fixed per-core
    // setup cost that dominated short small-N runs where both kernels
    // finish in microseconds.
    if (!cfg.fp_priorities.empty()) {
      if (cfg.fp_priorities.size() != ts.size()) {
        throw std::invalid_argument(
            "simulate: fp_priorities must have one rank per task");
      }
      fp_rank = cfg.fp_priorities;
    } else if (cfg.scheduler == SchedulerKind::kFixedPriority) {
      fp_rank.assign(ts.size(), std::numeric_limits<std::size_t>::max());
      std::vector<std::size_t> order(members.begin(), members.end());
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (ts[a].period() != ts[b].period()) {
          return ts[a].period() < ts[b].period();
        }
        return a < b;
      });
      for (std::size_t rank = 0; rank < order.size(); ++rank) {
        fp_rank[order[rank]] = rank;
      }
    }
  }

  [[nodiscard]] double deadline_scale(std::size_t task, Level task_level,
                                      Level mode) const {
    if (!cfg.use_virtual_deadlines ||
        cfg.scheduler == SchedulerKind::kFixedPriority) {
      return 1.0;
    }
    if (policy.num_levels() == 2 && !cfg.dual_scales.empty()) {
      // Per-task scales (e.g. from the tuned DBF analysis): HI tasks shrink
      // in LO mode, full deadlines once switched.
      if (task_level == 2 && mode == 1 && task < cfg.dual_scales.size()) {
        const double x = cfg.dual_scales[task];
        if (x > 0.0 && x <= 1.0) return x;
      }
      return 1.0;
    }
    if (cfg.dual_scale_override > 0.0 && cfg.dual_scale_override <= 1.0 &&
        policy.num_levels() == 2) {
      // HI tasks shrink in LO mode, full deadlines once switched.
      return (task_level == 2 && mode == 1) ? cfg.dual_scale_override : 1.0;
    }
    return policy.scale(task_level, mode);
  }

  /// Queries the scenario and enforces the (0, c_i(l_i)] contract.
  [[nodiscard]] double execution_time(const McTask& mt,
                                      std::uint64_t number) const {
    const double exec = scenario.execution_time(mt, number);
    if (!(exec > 0.0) || exec > mt.wcet(mt.level()) + kEps) {
      throw std::logic_error(
          "simulate: scenario returned an execution time outside "
          "(0, c_i(l_i)]");
    }
    return exec;
  }
};

/// State and helpers common to both kernels: the clock, the mode, the
/// per-core stats and the trace emission.
class CoreSimBase {
 protected:
  explicit CoreSimBase(CoreEnv& env) : env_(env) {
    stats_.mode_residency.assign(env_.policy.num_levels(), 0.0);
  }

  /// Advances the clock, accruing mode-residency time.
  void set_time(double to) {
    if (to > t_) {
      stats_.mode_residency[mode_ - 1] += to - t_;
      t_ = to;
    }
  }

  void emit(EventKind kind, std::size_t task, std::uint64_t job,
            double deadline) {
    if (env_.sink == nullptr) return;
    env_.sink->on_event(TraceEvent{.time = t_,
                                   .core = env_.core,
                                   .kind = kind,
                                   .task = task,
                                   .job = job,
                                   .mode = mode_,
                                   .deadline = deadline});
  }

  void emit_execute(const Job& job, double to) {
    if (env_.sink == nullptr) return;
    env_.sink->on_event(TraceEvent{.time = t_,
                                   .core = env_.core,
                                   .kind = EventKind::kExecute,
                                   .task = job.task,
                                   .job = job.number,
                                   .mode = mode_,
                                   .deadline = job.deadline,
                                   .until = to});
  }

  void record_miss(const Job& job) {
    g_deadline_misses.add();
    ++env_.task_stats[job.task].missed;
    env_.misses.push_back(DeadlineMiss{.core = env_.core,
                                       .task = job.task,
                                       .job = job.number,
                                       .deadline = job.deadline,
                                       .detected_at = t_,
                                       .mode = mode_});
    emit(EventKind::kDeadlineMiss, job.task, job.number, job.deadline);
  }

  void idle_reset() {
    mode_ = 1;
    ++stats_.idle_resets;
    emit(EventKind::kIdleReset, kNone, 0, 0.0);
  }

  [[nodiscard]] double deadline_scale(std::size_t task,
                                      Level task_level) const {
    return env_.deadline_scale(task, task_level, mode_);
  }

  CoreEnv& env_;
  Level mode_ = 1;
  double t_ = 0.0;
  CoreStats stats_;
  std::size_t last_ran_task_ = kNone;
  std::uint64_t last_ran_job_ = 0;
  std::size_t peak_ready_ = 0;
  /// Trace gate sampled once per core run; per-iteration sites branch on
  /// this plain bool instead of re-reading the atomic.
  const bool trace_armed_ = obs::trace_enabled();
};

// ---------------------------------------------------------------------------
// Reference kernel: the original linear-scan loop.
// ---------------------------------------------------------------------------

class ReferenceCoreSim : public CoreSimBase {
 public:
  explicit ReferenceCoreSim(CoreEnv& env) : CoreSimBase(env) {
    next_job_.assign(env_.members.size(), 0);
    next_arrival_.assign(env_.members.size(), 0.0);
  }

  CoreStats run(double horizon) {
    const obs::ScopedSpan run_span(kRefRunSite,
                                   obs::ScopedSpan::Armed{trace_armed_},
                                   env_.core, env_.members.size());
    while (t_ < horizon - kEps) {
      g_ref_loop_iters.add();
      if (flag_expired_deadlines()) {
        if (env_.cfg.stop_core_on_miss) break;
        continue;
      }
      if (ready_.empty()) {
        if (mode_ > 1 && env_.cfg.idle_reset) idle_reset();
        const double ta = next_arrival_time();
        if (ta >= horizon - kEps) break;
        set_time(ta);
        process_arrivals();
        continue;
      }

      const std::size_t run_index = select_running();
      Job& run_job = ready_[run_index];
      const Level run_level = env_.ts[run_job.task].level();
      const double t_complete = t_ + run_job.remaining;
      double t_threshold = kInf;
      if (run_level > mode_) {
        const double budget = env_.ts[run_job.task].wcet(mode_);
        t_threshold = t_ + std::max(0.0, budget - run_job.done);
      }
      const double t_release = next_arrival_time();
      const double t_dl = earliest_deadline();
      double t_evt = std::min({t_complete, t_threshold, t_release});

      if (t_dl + env_.cfg.miss_tolerance < t_evt) {
        // Some ready job's deadline passes before the next event, so it
        // cannot finish in time (under EDF it is the running job itself;
        // under fixed priority it may be a preempted lower-priority job).
        // Advance the running job to the deadline instant and flag the
        // expiring job.
        advance(run_job, t_dl);
        std::size_t expiring = 0;
        for (std::size_t i = 1; i < ready_.size(); ++i) {
          if (ready_[i].deadline < ready_[expiring].deadline) expiring = i;
        }
        const Job victim = ready_[expiring];
        record_miss(victim);
        if (env_.cfg.stop_core_on_miss) break;
        erase_at(expiring, victim.task, victim.number);
        continue;
      }
      if (t_evt >= horizon - kEps) {
        advance(run_job, std::min(t_evt, horizon));
        break;
      }

      advance(run_job, t_evt);
      if (run_job.remaining <= kEps && t_complete <= t_threshold + kEps) {
        complete(run_index);
        continue;
      }
      if (run_level > mode_ &&
          run_job.done >= env_.ts[run_job.task].wcet(mode_) - kEps &&
          run_job.remaining > kEps) {
        switch_mode();
        continue;
      }
      if (t_evt >= t_release - kEps) {
        process_arrivals();
      }
    }
    set_time(horizon);
    g_ref_ready_peak.record(peak_ready_);
    return stats_;
  }

 private:
  void advance(Job& job, double to) {
    const double dt = to - t_;
    if (dt > 0.0) {
      emit_execute(job, to);
      job.done += dt;
      job.remaining -= dt;
      set_time(to);
      last_ran_task_ = job.task;
      last_ran_job_ = job.number;
    }
  }

  /// Index of the scheduled job: EDF (deadline, task, number) or fixed
  /// priority (rank, task, number) — both strict total orders, so the
  /// choice never depends on ready-vector order.
  std::size_t select_running() {
    const bool fp = env_.cfg.scheduler == SchedulerKind::kFixedPriority;
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready_.size(); ++i) {
      const Job& a = ready_[i];
      const Job& b = ready_[best];
      bool a_wins = false;
      if (fp) {
        const std::size_t ra = env_.fp_rank[a.task];
        const std::size_t rb = env_.fp_rank[b.task];
        a_wins =
            ra < rb ||
            (ra == rb &&
             (a.task < b.task || (a.task == b.task && a.number < b.number)));
      } else {
        a_wins =
            a.deadline < b.deadline ||
            (a.deadline == b.deadline &&
             (a.task < b.task || (a.task == b.task && a.number < b.number)));
      }
      if (a_wins) best = i;
    }
    const Job& chosen = ready_[best];
    if (last_ran_task_ != kNone &&
        (chosen.task != last_ran_task_ || chosen.number != last_ran_job_) &&
        find_job(last_ran_task_, last_ran_job_) != kNone) {
      ++stats_.preemptions;
    }
    return best;
  }

  [[nodiscard]] double earliest_deadline() const {
    double dl = kInf;
    for (const Job& j : ready_) dl = std::min(dl, j.deadline);
    return dl;
  }

  [[nodiscard]] double next_arrival_time() const {
    double ta = kInf;
    for (std::size_t i = 0; i < env_.members.size(); ++i) {
      ta = std::min(ta, next_arrival_[i]);
    }
    return ta;
  }

  /// Advances a task's arrival pointer past the job just processed; under
  /// sporadic arrivals a deterministic per-job delay is added on top of the
  /// minimum inter-arrival time (the period).
  void schedule_next_arrival(std::size_t member, std::uint64_t job) {
    const McTask& mt = env_.ts[env_.members[member]];
    double delay = 0.0;
    if (env_.cfg.sporadic_jitter > 0.0) {
      gen::Rng rng(gen::derive_seed(env_.cfg.arrival_seed,
                                    mt.id() * 0x100000001ULL + job));
      delay = rng.uniform(0.0, env_.cfg.sporadic_jitter * mt.period());
    }
    next_arrival_[member] += mt.period() + delay;
  }

  void process_arrivals() {
    for (std::size_t i = 0; i < env_.members.size(); ++i) {
      while (next_arrival_[i] <= t_ + kEps) {
        const std::size_t task = env_.members[i];
        const McTask& mt = env_.ts[task];
        const std::uint64_t number = next_job_[i];
        const double release = next_arrival_[i];
        ++next_job_[i];
        schedule_next_arrival(i, number);
        const bool below_mode = mt.level() < mode_;
        const bool degrade =
            below_mode && env_.cfg.degraded_period_stretch > 1.0;
        if (below_mode && !degrade) {
          ++stats_.releases_suppressed;
          ++env_.task_stats[task].suppressed;
          emit(EventKind::kReleaseSuppressed, task, number, release);
          continue;
        }
        const double exec = env_.execution_time(mt, number);
        Job job;
        job.task = task;
        job.number = number;
        job.release = release;
        if (degrade) {
          // Degraded service: stretched deadline now, and the *next*
          // arrival pushed out by the same factor (minimum inter-arrival
          // grows while the mode is elevated).
          job.deadline =
              release + env_.cfg.degraded_period_stretch * mt.period();
          next_arrival_[i] +=
              (env_.cfg.degraded_period_stretch - 1.0) * mt.period();
          ++stats_.jobs_degraded;
          ++env_.task_stats[task].degraded;
        } else {
          job.deadline =
              release + deadline_scale(task, mt.level()) * mt.period();
        }
        job.remaining = exec;
        ready_.push_back(job);
        peak_ready_ = std::max(peak_ready_, ready_.size());
        ++stats_.jobs_released;
        ++env_.task_stats[task].released;
        emit(EventKind::kRelease, task, number, job.deadline);
      }
    }
  }

  void complete(std::size_t index) {
    const Job& job = ready_[index];
    ++stats_.jobs_completed;
    TaskSimStats& tstats = env_.task_stats[job.task];
    ++tstats.completed;
    const double response = t_ - job.release;
    tstats.sum_response += response;
    tstats.max_response = std::max(tstats.max_response, response);
    g_deadline_checks.add();
    if (t_ > job.deadline + env_.cfg.miss_tolerance) {
      record_miss(job);
    }
    emit(EventKind::kComplete, job.task, job.number, job.deadline);
    erase_at(index, job.task, job.number);
  }

  /// Flags ready jobs whose deadline already passed (can only happen within
  /// the miss tolerance window or after a non-stopping miss).  Returns true
  /// when a miss was recorded.
  bool flag_expired_deadlines() {
    g_deadline_checks.add(ready_.size());
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      const Job& j = ready_[i];
      if (t_ > j.deadline + env_.cfg.miss_tolerance) {
        const Job victim = j;
        record_miss(victim);
        erase_at(i, victim.task, victim.number);
        return true;
      }
    }
    return false;
  }

  void switch_mode() {
    const obs::ScopedSpan span(kModeSwitchSite,
                               obs::ScopedSpan::Armed{trace_armed_},
                               env_.core, mode_);
    bool again = true;
    while (again && mode_ < env_.policy.num_levels()) {
      const Level old_mode = mode_;
      ++mode_;
      ++stats_.mode_switches;
      g_mode_switches.add();
      stats_.max_mode = std::max(stats_.max_mode, mode_);
      emit(EventKind::kModeSwitch, kNone, 0, 0.0);
      // Drop jobs at or below the exhausted mode.
      for (std::size_t i = ready_.size(); i-- > 0;) {
        if (env_.ts[ready_[i].task].level() <= old_mode) {
          ++stats_.jobs_dropped;
          g_jobs_dropped.add();
          ++env_.task_stats[ready_[i].task].dropped;
          emit(EventKind::kJobDropped, ready_[i].task, ready_[i].number,
               ready_[i].deadline);
          ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      // Re-derive deadlines for the survivors under the new mode.
      for (Job& j : ready_) {
        j.deadline = j.release + deadline_scale(j.task, env_.ts[j.task].level()) *
                                     env_.ts[j.task].period();
      }
      // Cascade when a surviving job is already at the next budget (equal
      // consecutive WCETs).
      again = false;
      for (const Job& j : ready_) {
        const McTask& mt = env_.ts[j.task];
        if (mt.level() > mode_ && j.remaining > kEps &&
            j.done >= mt.wcet(mode_) - kEps) {
          again = true;
          break;
        }
      }
    }
  }

  [[nodiscard]] std::size_t find_job(std::size_t task,
                                     std::uint64_t number) const {
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      if (ready_[i].task == task && ready_[i].number == number) return i;
    }
    return kNone;
  }

  /// Erases by index — the caller already knows where the job lives; the
  /// assert documents that the index really names the job it claims to.
  void erase_at(std::size_t index, [[maybe_unused]] std::size_t task,
                [[maybe_unused]] std::uint64_t number) {
    assert(index < ready_.size() && ready_[index].task == task &&
           ready_[index].number == number);
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(index));
  }

  std::vector<Job> ready_;
  std::vector<std::uint64_t> next_job_;
  std::vector<double> next_arrival_;
};

// ---------------------------------------------------------------------------
// Fast kernel: indexed heaps + arrival calendar, O(log n) per event.
// ---------------------------------------------------------------------------

class FastCoreSim : public CoreSimBase {
 public:
  explicit FastCoreSim(CoreEnv& env)
      : CoreSimBase(env),
        queue_(env.cfg.scheduler == SchedulerKind::kFixedPriority
                   ? &env.fp_rank
                   : nullptr) {
    next_job_.assign(env_.members.size(), 0);
    calendar_.reset(env_.members.size(), 0.0);
    // The t=0 burst releases one job per member before anything retires;
    // sizing the pool/heap/scratch for it up front removes the doubling
    // reallocations from every run's first instants (overload can still
    // grow past this — those runs amortize the growth as before).
    queue_.reserve(env_.members.size());
    due_scratch_.reserve(env_.members.size());
    switch_scratch_.reserve(env_.members.size());
  }

  CoreStats run(double horizon) {
    const obs::ScopedSpan run_span(kFastRunSite,
                                   obs::ScopedSpan::Armed{trace_armed_},
                                   env_.core, env_.members.size());
    while (t_ < horizon - kEps) {
      g_fast_loop_iters.add();
      if (flag_expired_deadlines()) {
        if (env_.cfg.stop_core_on_miss) break;
        continue;
      }
      if (queue_.empty()) {
        if (mode_ > 1 && env_.cfg.idle_reset) idle_reset();
        const double ta = calendar_.next_time();
        if (ta >= horizon - kEps) break;
        set_time(ta);
        process_arrivals();
        continue;
      }

      const JobHandle run_handle = select_running();
      Job& run_job = queue_.job(run_handle);
      const Level run_level = env_.ts[run_job.task].level();
      const double t_complete = t_ + run_job.remaining;
      double t_threshold = kInf;
      if (run_level > mode_) {
        const double budget = env_.ts[run_job.task].wcet(mode_);
        t_threshold = t_ + std::max(0.0, budget - run_job.done);
      }
      const double t_release = calendar_.next_time();
      const double t_dl = queue_.earliest_deadline();
      double t_evt = std::min({t_complete, t_threshold, t_release});

      if (t_dl + env_.cfg.miss_tolerance < t_evt) {
        // The (deadline, seq) heap top is exactly the reference loop's
        // victim: the first minimal-deadline job in insertion order.
        advance(run_handle, t_dl);
        const JobHandle victim_handle = queue_.top_deadline();
        const Job victim = queue_.job(victim_handle);
        record_miss(victim);
        if (env_.cfg.stop_core_on_miss) break;
        queue_.erase(victim_handle);
        continue;
      }
      if (t_evt >= horizon - kEps) {
        advance(run_handle, std::min(t_evt, horizon));
        break;
      }

      advance(run_handle, t_evt);
      if (run_job.remaining <= kEps && t_complete <= t_threshold + kEps) {
        complete(run_handle);
        continue;
      }
      if (run_level > mode_ &&
          run_job.done >= env_.ts[run_job.task].wcet(mode_) - kEps &&
          run_job.remaining > kEps) {
        switch_mode();
        continue;
      }
      if (t_evt >= t_release - kEps) {
        process_arrivals();
      }
    }
    set_time(horizon);
    g_fast_ready_peak.record(peak_ready_);
    return stats_;
  }

 private:
  void advance(JobHandle handle, double to) {
    Job& job = queue_.job(handle);
    const double dt = to - t_;
    if (dt > 0.0) {
      emit_execute(job, to);
      job.done += dt;
      job.remaining -= dt;
      set_time(to);
      last_ran_task_ = job.task;
      last_ran_job_ = job.number;
      last_ran_handle_ = handle;
    }
  }

  /// O(1) dispatch peek plus the reference loop's preemption accounting: a
  /// preemption is counted when the chosen job differs from the last job
  /// that executed while that job is still ready.
  JobHandle select_running() {
    const JobHandle chosen = queue_.top_sched();
    const Job& job = queue_.job(chosen);
    if (last_ran_task_ != kNone &&
        (job.task != last_ran_task_ || job.number != last_ran_job_) &&
        queue_.contains(last_ran_handle_, last_ran_task_, last_ran_job_)) {
      ++stats_.preemptions;
    }
    return chosen;
  }

  void process_arrivals() {
    calendar_.collect_due(t_, kEps, due_scratch_);
    if (trace_armed_ && !due_scratch_.empty()) {
      obs::trace_instant(kCalendarRefillSite, env_.core, due_scratch_.size());
    }
    for (const std::size_t i : due_scratch_) {
      while (calendar_.time_of(i) <= t_ + kEps) {
        const std::size_t task = env_.members[i];
        const McTask& mt = env_.ts[task];
        const std::uint64_t number = next_job_[i];
        const double release = calendar_.time_of(i);
        ++next_job_[i];
        // schedule_next_arrival, calendar edition: same arithmetic as the
        // reference (release + (period + delay)).
        {
          double delay = 0.0;
          if (env_.cfg.sporadic_jitter > 0.0) {
            gen::Rng rng(gen::derive_seed(env_.cfg.arrival_seed,
                                          mt.id() * 0x100000001ULL + number));
            delay = rng.uniform(0.0, env_.cfg.sporadic_jitter * mt.period());
          }
          calendar_.set_time(i, release + (mt.period() + delay));
        }
        const bool below_mode = mt.level() < mode_;
        const bool degrade =
            below_mode && env_.cfg.degraded_period_stretch > 1.0;
        if (below_mode && !degrade) {
          ++stats_.releases_suppressed;
          ++env_.task_stats[task].suppressed;
          emit(EventKind::kReleaseSuppressed, task, number, release);
          continue;
        }
        const double exec = env_.execution_time(mt, number);
        Job job;
        job.task = task;
        job.number = number;
        job.release = release;
        if (degrade) {
          job.deadline =
              release + env_.cfg.degraded_period_stretch * mt.period();
          calendar_.set_time(
              i, calendar_.time_of(i) +
                     (env_.cfg.degraded_period_stretch - 1.0) * mt.period());
          ++stats_.jobs_degraded;
          ++env_.task_stats[task].degraded;
        } else {
          job.deadline =
              release + deadline_scale(task, mt.level()) * mt.period();
        }
        job.remaining = exec;
        queue_.push(job);
        peak_ready_ = std::max(peak_ready_, queue_.size());
        ++stats_.jobs_released;
        ++env_.task_stats[task].released;
        emit(EventKind::kRelease, task, number, job.deadline);
      }
    }
  }

  void complete(JobHandle handle) {
    const Job job = queue_.job(handle);
    ++stats_.jobs_completed;
    TaskSimStats& tstats = env_.task_stats[job.task];
    ++tstats.completed;
    const double response = t_ - job.release;
    tstats.sum_response += response;
    tstats.max_response = std::max(tstats.max_response, response);
    g_deadline_checks.add();
    if (t_ > job.deadline + env_.cfg.miss_tolerance) {
      record_miss(job);
    }
    emit(EventKind::kComplete, job.task, job.number, job.deadline);
    queue_.erase(handle);
  }

  /// O(1) in the common no-miss case: some ready job is expired iff the
  /// minimal deadline is expired (a smaller deadline is at least as
  /// expired), so the earliest-deadline peek decides; the exact
  /// (deadline, seq) victim is resolved only when a miss actually fires —
  /// equivalent to the reference loop's O(n) scan.
  bool flag_expired_deadlines() {
    g_deadline_checks.add(queue_.size());
    if (queue_.empty()) return false;
    if (t_ <= queue_.earliest_deadline() + env_.cfg.miss_tolerance) {
      return false;
    }
    const JobHandle handle = queue_.top_deadline();
    const Job victim = queue_.job(handle);
    record_miss(victim);
    queue_.erase(handle);
    return true;
  }

  void switch_mode() {
    const obs::ScopedSpan span(kModeSwitchSite,
                               obs::ScopedSpan::Armed{trace_armed_},
                               env_.core, mode_);
    bool again = true;
    while (again && mode_ < env_.policy.num_levels()) {
      const Level old_mode = mode_;
      ++mode_;
      ++stats_.mode_switches;
      g_mode_switches.add();
      stats_.max_mode = std::max(stats_.max_mode, mode_);
      emit(EventKind::kModeSwitch, kNone, 0, 0.0);
      // Snapshot the ready set in insertion order; the reference loop walks
      // its vector backwards, so drops must be emitted in reverse seq order.
      switch_scratch_.clear();
      queue_.for_each(
          [&](JobHandle h) { switch_scratch_.push_back(h); });
      std::sort(switch_scratch_.begin(), switch_scratch_.end(),
                [&](JobHandle a, JobHandle b) {
                  return queue_.seq(a) < queue_.seq(b);
                });
      for (auto it = switch_scratch_.rbegin(); it != switch_scratch_.rend();
           ++it) {
        const Job& j = queue_.job(*it);
        if (env_.ts[j.task].level() <= old_mode) {
          ++stats_.jobs_dropped;
          g_jobs_dropped.add();
          ++env_.task_stats[j.task].dropped;
          emit(EventKind::kJobDropped, j.task, j.number, j.deadline);
          queue_.erase(*it);
        }
      }
      // Survivors: re-derive deadlines and detect a cascade (a job already
      // at the next budget) in one pass, then bulk-rebuild both heaps.
      again = false;
      queue_.for_each([&](JobHandle h) {
        Job& j = queue_.job(h);
        const McTask& mt = env_.ts[j.task];
        j.deadline =
            j.release + deadline_scale(j.task, mt.level()) * mt.period();
        if (mt.level() > mode_ && j.remaining > kEps &&
            j.done >= mt.wcet(mode_) - kEps) {
          again = true;
        }
      });
      queue_.rebuild();
    }
  }

  ReadyQueue queue_;
  ArrivalCalendar calendar_;
  std::vector<std::uint64_t> next_job_;
  std::vector<std::size_t> due_scratch_;
  std::vector<JobHandle> switch_scratch_;
  JobHandle last_ran_handle_ = kNoJob;
};

/// Horizon selection shared by simulate/simulate_core.
double resolve_horizon(const SimConfig& config, const TaskSet& ts) {
  if (config.horizon > 0.0) return config.horizon;
  return config.use_hyperperiod_horizon ? hyperperiod_horizon(ts)
                                        : default_horizon(ts);
}

CoreStats run_core(const Partition& partition, std::size_t core,
                   const ExecutionScenario& scenario, const SimConfig& config,
                   TraceSink* sink, double horizon,
                   std::vector<DeadlineMiss>& misses,
                   std::vector<TaskSimStats>& task_stats) {
  CoreEnv env(partition, core, scenario, config, sink, misses, task_stats);
  if (config.engine == EngineKind::kReference) {
    ReferenceCoreSim sim(env);
    return sim.run(horizon);
  }
  FastCoreSim sim(env);
  return sim.run(horizon);
}

}  // namespace

double default_horizon(const TaskSet& ts) {
  double max_p = 0.0;
  for (const McTask& t : ts) max_p = std::max(max_p, t.period());
  return 20.0 * max_p;
}

std::optional<double> integral_hyperperiod(const TaskSet& ts) {
  // Doubles represent integers exactly up to 2^53; beyond that the
  // "hyperperiod" would silently lose precision, so treat it as overflow.
  constexpr std::uint64_t kMaxExact = 1ULL << 53;
  std::uint64_t lcm = 1;
  for (const McTask& t : ts) {
    const double p = t.period();
    const double rounded = std::round(p);
    if (rounded < 1.0 || std::abs(p - rounded) > 1e-9 * std::max(1.0, p)) {
      return std::nullopt;
    }
    const auto ip = static_cast<std::uint64_t>(rounded);
    const std::uint64_t g = std::gcd(lcm, ip);
    const std::uint64_t step = lcm / g;
    if (ip > kMaxExact / step) return std::nullopt;  // lcm would overflow
    lcm = step * ip;
  }
  return static_cast<double>(lcm);
}

double hyperperiod_horizon(const TaskSet& ts) {
  const std::optional<double> hp = integral_hyperperiod(ts);
  return hp.has_value() ? *hp : default_horizon(ts);
}

SimResult simulate_core(const Partition& partition, std::size_t core,
                        const ExecutionScenario& scenario,
                        const SimConfig& config, TraceSink* sink) {
  SimResult result;
  result.horizon = resolve_horizon(config, partition.taskset());
  result.tasks.assign(partition.taskset().size(), TaskSimStats{});
  result.cores.push_back(run_core(partition, core, scenario, config, sink,
                                  result.horizon, result.misses,
                                  result.tasks));
  return result;
}

SimResult simulate(const Partition& partition,
                   const ExecutionScenario& scenario, const SimConfig& config,
                   TraceSink* sink) {
  const obs::ScopedSpan span(kSimulateSite, partition.num_cores(),
                             partition.taskset().size());
  SimResult result;
  result.horizon = resolve_horizon(config, partition.taskset());
  result.tasks.assign(partition.taskset().size(), TaskSimStats{});
  result.cores.reserve(partition.num_cores());
  for (std::size_t core = 0; core < partition.num_cores(); ++core) {
    result.cores.push_back(run_core(partition, core, scenario, config, sink,
                                    result.horizon, result.misses,
                                    result.tasks));
  }
  return result;
}

}  // namespace mcs::sim
