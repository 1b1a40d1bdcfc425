#include "mcs/analysis/placement.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "mcs/analysis/edfvd.hpp"
#include "mcs/core/contributions.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/obs/trace.hpp"

namespace mcs::analysis {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Trace sites: only the batched entry points carry spans (one gate check
// amortized over num_cores() lanes); the scalar probes are too hot (tens
// of ns) for even a disabled-gate branch to stay under the 1% overhead
// budget, so they are covered by counters and the enclosing partitioner
// spans instead.  Mutations are rare and become instants.
constexpr obs::TraceSite kProbeAllSite{"analysis.probe_all_cores", "task",
                                       "cores"};
constexpr obs::TraceSite kFitsAllSite{"analysis.probe_fits_all", "task",
                                      "cores"};
constexpr obs::TraceSite kFitsBasicAllSite{"analysis.probe_fits_basic_all",
                                           "task", "cores"};
constexpr obs::TraceSite kCommitSite{"analysis.commit", "task", "core"};
constexpr obs::TraceSite kUncommitSite{"analysis.uncommit", "task", "core"};
constexpr obs::TraceSite kRelocateSite{"analysis.relocate", "task", "from",
                                       "to"};

// Registered once; increments are no-ops while metrics are disabled.
obs::Counter& g_probes = obs::registry().counter("placement.probes");
obs::Counter& g_probes_infeasible =
    obs::registry().counter("placement.probes_infeasible");
obs::Counter& g_eq4_accepts = obs::registry().counter("placement.eq4_accepts");
obs::Counter& g_improved_tests =
    obs::registry().counter("placement.improved_tests");
obs::Counter& g_commits = obs::registry().counter("placement.commits");
obs::Counter& g_uncommits = obs::registry().counter("placement.uncommits");
obs::Counter& g_imbalance_rescans =
    obs::registry().counter("placement.imbalance_rescans");
}  // namespace

void PlacementEngine::reset(const TaskSet& ts, std::size_t num_cores) {
  if (partition_) {
    partition_->reset(ts, num_cores);
  } else {
    partition_.emplace(ts, num_cores);
  }
  batch_scratch_.resize(ts.num_levels());
  batch_util_.assign(num_cores, 0.0);
  batch_basic_.assign(num_cores, 0);
  buffers_.candidates.assign(num_cores, Candidate{});
  buffers_.feasible.assign(num_cores, 0);
  buffers_.probes.assign(num_cores, ProbeResult{});
  scratch_.reset(ts.num_levels());
  util_.assign(num_cores, 0.0);
  probes_ = 0;
  max_util_ = 0.0;
  min_util_ = 0.0;
  minmax_valid_ = true;
}

std::span<const std::size_t> PlacementEngine::CachedOrder::of(
    const TaskSet& ts, std::vector<double>& keys, OrderSort sort) {
  if (serial != ts.serial()) {
    sort(ts, keys, order);
    serial = ts.serial();
  }
  return order;
}

std::span<const std::size_t> PlacementEngine::max_utilization_order() {
  return max_util_order_.of(taskset(), order_keys_, order_by_max_utilization);
}

std::span<const std::size_t> PlacementEngine::contribution_order() {
  return contribution_order_.of(taskset(), order_keys_, order_by_contribution);
}

const UtilMatrix& PlacementEngine::with_task(std::size_t task,
                                             std::size_t core) {
  partition_->utils_on(core, scratch_);  // reuses scratch storage
  scratch_.add(taskset()[task]);
  return scratch_;
}

ProbeResult PlacementEngine::probe(std::size_t task, std::size_t core,
                                   ProbePolicy policy) {
  ++probes_;
  g_probes.add();
  const double new_util =
      core_utilization(with_task(task, core), test_scratch_, policy);
  ProbeResult r;
  r.feasible = new_util != kInf;
  r.new_util = new_util;
  r.increment = r.feasible ? new_util - util_[core] : kInf;
  if (!r.feasible) g_probes_infeasible.add();
  return r;
}

bool PlacementEngine::probe_fits(std::size_t task, std::size_t core) {
  ++probes_;
  g_probes.add();
  const UtilMatrix& hypothetical = with_task(task, core);
  if (basic_test(hypothetical)) {
    g_eq4_accepts.add();
    return true;
  }
  g_improved_tests.add();
  improved_test(hypothetical, test_scratch_);
  if (!test_scratch_.schedulable) g_probes_infeasible.add();
  return test_scratch_.schedulable;
}

bool PlacementEngine::probe_fits_basic(std::size_t task, std::size_t core) {
  ++probes_;
  g_probes.add();
  return basic_test(with_task(task, core));
}

void PlacementEngine::probe_all_cores(std::size_t task, ProbePolicy policy,
                                      std::span<ProbeResult> out) {
  const std::size_t cores = num_cores();
  assert(out.size() == cores && "probe_all_cores: out must span every core");
  const obs::ScopedSpan span(kProbeAllSite, task, cores);
  // One batched call == num_cores() probes: the accounting of the scalar
  // all-cores scan it replaces.
  probes_ += cores;
  g_probes.add(cores);
  batch_core_utilization(partition_->planes(), taskset()[task], policy,
                         batch_scratch_, batch_util_.data());
  std::uint64_t infeasible = 0;
  for (std::size_t m = 0; m < cores; ++m) {
    const double new_util = batch_util_[m];
    ProbeResult r;
    r.feasible = new_util != kInf;
    r.new_util = new_util;
    r.increment = r.feasible ? new_util - util_[m] : kInf;
    if (!r.feasible) ++infeasible;
    out[m] = r;
  }
  g_probes_infeasible.add(infeasible);
}

void PlacementEngine::probe_fits_all(std::size_t task,
                                     std::span<unsigned char> out) {
  const std::size_t cores = num_cores();
  assert(out.size() == cores && "probe_fits_all: out must span every core");
  const obs::ScopedSpan span(kFitsAllSite, task, cores);
  probes_ += cores;  // one batched call == num_cores() probes
  g_probes.add(cores);
  batch_fits(partition_->planes(), taskset()[task], batch_scratch_,
             batch_basic_.data(), out.data());
  // Same counter semantics as the scalar loop: Eq. (4) accepts take the
  // fast path; every basic miss runs the improved test; an improved-test
  // reject is an infeasible probe.
  std::uint64_t basic_accepts = 0;
  std::uint64_t rejects = 0;
  for (std::size_t m = 0; m < cores; ++m) {
    basic_accepts += batch_basic_[m] != 0 ? 1u : 0u;
    rejects += out[m] == 0 ? 1u : 0u;
  }
  g_eq4_accepts.add(basic_accepts);
  g_improved_tests.add(cores - basic_accepts);
  g_probes_infeasible.add(rejects);
}

void PlacementEngine::probe_fits_basic_all(std::size_t task,
                                           std::span<unsigned char> out) {
  const std::size_t cores = num_cores();
  assert(out.size() == cores &&
         "probe_fits_basic_all: out must span every core");
  const obs::ScopedSpan span(kFitsBasicAllSite, task, cores);
  probes_ += cores;  // one batched call == num_cores() probes
  g_probes.add(cores);
  batch_fits_basic(partition_->planes(), taskset()[task], batch_scratch_,
                   out.data());
}

void PlacementEngine::commit(std::size_t task, std::size_t core) {
  g_commits.add();
  obs::trace_instant(kCommitSite, task, core);
  partition_->assign(task, core);
}

void PlacementEngine::commit(std::size_t task, std::size_t core,
                             double new_util) {
  g_commits.add();
  obs::trace_instant(kCommitSite, task, core);
  partition_->assign(task, core);
  set_util(core, new_util);
}

void PlacementEngine::uncommit(std::size_t task) {
  g_uncommits.add();
  const std::size_t core = partition_->core_of(task);
  obs::trace_instant(kUncommitSite, task, core);
  partition_->unassign(task);
}

void PlacementEngine::relocate(std::size_t task, std::size_t core) {
  const std::size_t from = partition_->core_of(task);
  obs::trace_instant(kRelocateSite, task, from, core);
  partition_->unassign(task);
  partition_->assign(task, core);
}

void PlacementEngine::set_util(std::size_t core, double value) {
  const double old = util_[core];
  util_[core] = value;
  if (!minmax_valid_) return;
  if (value > max_util_) {
    max_util_ = value;
  } else if (old == max_util_ && value < old) {
    minmax_valid_ = false;  // the maximum may have moved; rescan on demand
  }
  if (value < min_util_) {
    min_util_ = value;
  } else if (old == min_util_ && value > old) {
    minmax_valid_ = false;
  }
}

double PlacementEngine::imbalance() const {
  if (!minmax_valid_) {
    g_imbalance_rescans.add();
    max_util_ = *std::max_element(util_.begin(), util_.end());
    min_util_ = *std::min_element(util_.begin(), util_.end());
    minmax_valid_ = true;
  }
  return max_util_ > 0.0 ? (max_util_ - min_util_) / max_util_ : 0.0;
}

}  // namespace mcs::analysis
