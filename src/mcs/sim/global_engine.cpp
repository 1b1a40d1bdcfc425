#include "mcs/sim/global_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "mcs/analysis/vdeadlines.hpp"
#include "mcs/gen/rng.hpp"

namespace mcs::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

struct Job {
  std::size_t task = 0;
  std::uint64_t number = 0;
  double release = 0.0;
  double deadline = 0.0;
  double remaining = 0.0;
  double done = 0.0;
};

class GlobalSim {
 public:
  GlobalSim(const TaskSet& ts, std::size_t cores,
            const ExecutionScenario& scenario, const SimConfig& cfg,
            TraceSink* sink, SimResult& result)
      : ts_(ts),
        cores_(cores),
        scenario_(scenario),
        cfg_(cfg),
        sink_(sink),
        policy_(ts.utils()),
        result_(result) {
    stats_.mode_residency.assign(ts_.num_levels(), 0.0);
    next_job_.assign(ts_.size(), 0);
    next_arrival_.assign(ts_.size(), 0.0);
    fp_rank_.assign(ts_.size(), 0);
    std::vector<std::size_t> order(ts_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (ts_[a].period() != ts_[b].period()) {
        return ts_[a].period() < ts_[b].period();
      }
      return a < b;
    });
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      fp_rank_[order[rank]] = rank;
    }
  }

  CoreStats run(double horizon) {
    while (t_ < horizon - kEps) {
      if (flag_expired_deadlines()) {
        if (cfg_.stop_core_on_miss) break;
        continue;
      }
      if (ready_.empty()) {
        if (mode_ > 1 && cfg_.idle_reset) idle_reset();
        const double ta = next_arrival_time();
        if (ta >= horizon - kEps) break;
        set_time(ta);
        process_arrivals();
        continue;
      }

      const std::vector<std::size_t> running = select_running();
      double t_complete = kInf;
      double t_threshold = kInf;
      for (std::size_t idx : running) {
        const Job& job = ready_[idx];
        t_complete = std::min(t_complete, t_ + job.remaining);
        if (ts_[job.task].level() > mode_) {
          const double budget = ts_[job.task].wcet(mode_);
          t_threshold =
              std::min(t_threshold, t_ + std::max(0.0, budget - job.done));
        }
      }
      const double t_release = next_arrival_time();
      const double t_dl = earliest_deadline();
      const double t_evt = std::min({t_complete, t_threshold, t_release});

      if (t_dl + cfg_.miss_tolerance < t_evt) {
        advance_running(running, t_dl);
        std::size_t expiring = 0;
        for (std::size_t i = 1; i < ready_.size(); ++i) {
          if (ready_[i].deadline < ready_[expiring].deadline) expiring = i;
        }
        const Job victim = ready_[expiring];
        record_miss(victim);
        if (cfg_.stop_core_on_miss) break;
        erase_job(victim.task, victim.number);
        continue;
      }
      if (t_evt >= horizon - kEps) {
        advance_running(running, std::min(t_evt, horizon));
        break;
      }
      advance_running(running, t_evt);

      // Completions (any running job that finished).
      bool completed_any = false;
      for (std::size_t i = ready_.size(); i-- > 0;) {
        if (ready_[i].remaining <= kEps) {
          complete(ready_[i]);
          completed_any = true;
        }
      }
      if (completed_any) continue;

      // Budget exhaustion -> system-wide mode switch.
      bool exceeded = false;
      for (const Job& job : ready_) {
        const McTask& mt = ts_[job.task];
        if (mt.level() > mode_ && job.remaining > kEps &&
            job.done >= mt.wcet(mode_) - kEps) {
          exceeded = true;
          break;
        }
      }
      if (exceeded) {
        switch_mode();
        continue;
      }
      if (t_evt >= t_release - kEps) process_arrivals();
    }
    set_time(horizon);
    return stats_;
  }

 private:
  void set_time(double to) {
    if (to > t_) {
      stats_.mode_residency[mode_ - 1] += to - t_;
      t_ = to;
    }
  }

  void advance_running(const std::vector<std::size_t>& running, double to) {
    const double dt = to - t_;
    if (dt <= 0.0) return;
    for (std::size_t idx : running) {
      if (sink_ != nullptr) {
        sink_->on_event(TraceEvent{.time = t_,
                                   .core = 0,
                                   .kind = EventKind::kExecute,
                                   .task = ready_[idx].task,
                                   .job = ready_[idx].number,
                                   .mode = mode_,
                                   .deadline = ready_[idx].deadline,
                                   .until = to});
      }
      ready_[idx].done += dt;
      ready_[idx].remaining -= dt;
    }
    set_time(to);
  }

  [[nodiscard]] bool higher_priority(const Job& a, const Job& b) const {
    if (cfg_.scheduler == SchedulerKind::kFixedPriority) {
      return fp_rank_[a.task] < fp_rank_[b.task] ||
             (a.task == b.task && a.number < b.number);
    }
    return a.deadline < b.deadline ||
           (a.deadline == b.deadline &&
            (a.task < b.task || (a.task == b.task && a.number < b.number)));
  }

  /// Indices (into ready_) of the up-to-m highest-priority jobs.
  [[nodiscard]] std::vector<std::size_t> select_running() const {
    std::vector<std::size_t> idx(ready_.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    const std::size_t take = std::min(cores_, idx.size());
    std::partial_sort(idx.begin(),
                      idx.begin() + static_cast<std::ptrdiff_t>(take),
                      idx.end(), [&](std::size_t a, std::size_t b) {
                        return higher_priority(ready_[a], ready_[b]);
                      });
    idx.resize(take);
    return idx;
  }

  [[nodiscard]] double earliest_deadline() const {
    double dl = kInf;
    for (const Job& j : ready_) dl = std::min(dl, j.deadline);
    return dl;
  }

  [[nodiscard]] double next_arrival_time() const {
    double ta = kInf;
    for (double a : next_arrival_) ta = std::min(ta, a);
    return ta;
  }

  void schedule_next_arrival(std::size_t task, std::uint64_t job) {
    const McTask& mt = ts_[task];
    double delay = 0.0;
    if (cfg_.sporadic_jitter > 0.0) {
      gen::Rng rng(gen::derive_seed(cfg_.arrival_seed,
                                    mt.id() * 0x100000001ULL + job));
      delay = rng.uniform(0.0, cfg_.sporadic_jitter * mt.period());
    }
    next_arrival_[task] += mt.period() + delay;
  }

  [[nodiscard]] double deadline_scale(std::size_t task,
                                      Level task_level) const {
    if (!cfg_.use_virtual_deadlines ||
        cfg_.scheduler == SchedulerKind::kFixedPriority) {
      return 1.0;
    }
    if (ts_.num_levels() == 2 && !cfg_.dual_scales.empty()) {
      if (task_level == 2 && mode_ == 1 && task < cfg_.dual_scales.size()) {
        const double x = cfg_.dual_scales[task];
        if (x > 0.0 && x <= 1.0) return x;
      }
      return 1.0;
    }
    return policy_.scale(task_level, mode_);
  }

  void process_arrivals() {
    for (std::size_t task = 0; task < ts_.size(); ++task) {
      while (next_arrival_[task] <= t_ + kEps) {
        const McTask& mt = ts_[task];
        const std::uint64_t number = next_job_[task];
        const double release = next_arrival_[task];
        ++next_job_[task];
        schedule_next_arrival(task, number);
        if (mt.level() < mode_) {
          ++stats_.releases_suppressed;
          ++result_.tasks[task].suppressed;
          emit(EventKind::kReleaseSuppressed, task, number, release);
          continue;
        }
        const double exec = scenario_.execution_time(mt, number);
        if (!(exec > 0.0) || exec > mt.wcet(mt.level()) + kEps) {
          throw std::logic_error(
              "simulate_global: scenario returned an execution time outside "
              "(0, c_i(l_i)]");
        }
        Job job;
        job.task = task;
        job.number = number;
        job.release = release;
        job.deadline =
            release + deadline_scale(task, mt.level()) * mt.period();
        job.remaining = exec;
        ready_.push_back(job);
        ++stats_.jobs_released;
        ++result_.tasks[task].released;
        emit(EventKind::kRelease, task, number, job.deadline);
      }
    }
  }

  void complete(const Job& job) {
    ++stats_.jobs_completed;
    TaskSimStats& tstats = result_.tasks[job.task];
    ++tstats.completed;
    const double response = t_ - job.release;
    tstats.sum_response += response;
    tstats.max_response = std::max(tstats.max_response, response);
    if (t_ > job.deadline + cfg_.miss_tolerance) record_miss(job);
    emit(EventKind::kComplete, job.task, job.number, job.deadline);
    erase_job(job.task, job.number);
  }

  bool flag_expired_deadlines() {
    for (const Job& j : ready_) {
      if (t_ > j.deadline + cfg_.miss_tolerance) {
        record_miss(j);
        erase_job(j.task, j.number);
        return true;
      }
    }
    return false;
  }

  void switch_mode() {
    bool again = true;
    while (again && mode_ < ts_.num_levels()) {
      const Level old_mode = mode_;
      ++mode_;
      ++stats_.mode_switches;
      stats_.max_mode = std::max(stats_.max_mode, mode_);
      emit(EventKind::kModeSwitch, kNone, 0, 0.0);
      for (std::size_t i = ready_.size(); i-- > 0;) {
        if (ts_[ready_[i].task].level() <= old_mode) {
          ++stats_.jobs_dropped;
          ++result_.tasks[ready_[i].task].dropped;
          emit(EventKind::kJobDropped, ready_[i].task, ready_[i].number,
               ready_[i].deadline);
          ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      for (Job& j : ready_) {
        j.deadline = j.release + deadline_scale(j.task, ts_[j.task].level()) *
                                     ts_[j.task].period();
      }
      again = false;
      for (const Job& j : ready_) {
        const McTask& mt = ts_[j.task];
        if (mt.level() > mode_ && j.remaining > kEps &&
            j.done >= mt.wcet(mode_) - kEps) {
          again = true;
          break;
        }
      }
    }
  }

  void idle_reset() {
    mode_ = 1;
    ++stats_.idle_resets;
    emit(EventKind::kIdleReset, kNone, 0, 0.0);
  }

  void record_miss(const Job& job) {
    ++result_.tasks[job.task].missed;
    result_.misses.push_back(DeadlineMiss{.core = 0,
                                          .task = job.task,
                                          .job = job.number,
                                          .deadline = job.deadline,
                                          .detected_at = t_,
                                          .mode = mode_});
    emit(EventKind::kDeadlineMiss, job.task, job.number, job.deadline);
  }

  void erase_job(std::size_t task, std::uint64_t number) {
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      if (ready_[i].task == task && ready_[i].number == number) {
        ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  void emit(EventKind kind, std::size_t task, std::uint64_t job,
            double deadline) {
    if (sink_ == nullptr) return;
    sink_->on_event(TraceEvent{.time = t_,
                               .core = 0,
                               .kind = kind,
                               .task = task,
                               .job = job,
                               .mode = mode_,
                               .deadline = deadline});
  }

  const TaskSet& ts_;
  std::size_t cores_;
  const ExecutionScenario& scenario_;
  const SimConfig& cfg_;
  TraceSink* sink_;
  analysis::DeadlinePolicy policy_;
  SimResult& result_;

  Level mode_ = 1;
  double t_ = 0.0;
  std::vector<Job> ready_;
  std::vector<std::uint64_t> next_job_;
  std::vector<double> next_arrival_;
  std::vector<std::size_t> fp_rank_;
  CoreStats stats_;
};

}  // namespace

SimResult simulate_global(const TaskSet& ts, std::size_t num_cores,
                          const ExecutionScenario& scenario,
                          const SimConfig& config, TraceSink* sink) {
  if (num_cores == 0) {
    throw std::invalid_argument("simulate_global: need at least one core");
  }
  SimResult result;
  double max_p = 0.0;
  for (const McTask& t : ts) max_p = std::max(max_p, t.period());
  result.horizon = config.horizon > 0.0 ? config.horizon : 20.0 * max_p;
  result.tasks.assign(ts.size(), TaskSimStats{});
  GlobalSim sim(ts, num_cores, scenario, config, sink, result);
  result.cores.push_back(sim.run(result.horizon));
  return result;
}

}  // namespace mcs::sim
