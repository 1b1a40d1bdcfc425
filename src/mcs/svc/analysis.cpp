#include "mcs/svc/analysis.hpp"

#include <sstream>
#include <stdexcept>

#include "mcs/analysis/metrics.hpp"
#include "mcs/analysis/placement.hpp"
#include "mcs/io/taskset_io.hpp"
#include "mcs/partition/registry.hpp"
#include "mcs/util/fnv.hpp"

namespace mcs::svc {

std::string canonical_request_text(const AnalysisRequest& req) {
  std::ostringstream out;
  out << "scheme " << req.scheme_spec << '\n';
  out << "cores " << req.num_cores << '\n';
  // Alpha at round-trip precision, matching io::write_taskset's convention
  // for periods/WCETs below.
  out.precision(17);
  out << "alpha " << req.alpha << '\n';
  io::write_taskset(out, req.taskset);
  return out.str();
}

std::uint64_t taskset_fingerprint(const TaskSet& ts) {
  util::Fnv1a h;
  h.feed_u64(ts.size());
  h.feed_u64(ts.num_levels());
  for (const McTask& task : ts) {
    h.feed_u64(task.id());
    h.feed_double(task.period());
    h.feed_u64(task.wcets().size());
    for (const double c : task.wcets()) h.feed_double(c);
  }
  return h.value();
}

std::uint64_t canonical_fingerprint(std::string_view canonical) {
  util::Fnv1a h;
  h.feed(canonical);
  return h.value();
}

std::uint64_t request_fingerprint(const AnalysisRequest& req) {
  return canonical_fingerprint(canonical_request_text(req));
}

AnalysisResult analyze(const AnalysisRequest& req,
                       analysis::PlacementEngine& engine) {
  if (req.num_cores == 0) {
    throw std::invalid_argument("analyze: request needs at least one core");
  }
  if (req.num_cores > kMaxCores) {
    throw std::invalid_argument("analyze: request names more than " +
                                std::to_string(kMaxCores) + " cores");
  }
  const std::unique_ptr<partition::Partitioner> scheme =
      partition::make_scheme_spec(req.scheme_spec, req.alpha);

  engine.reset(req.taskset, req.num_cores);
  const partition::PlacementOutcome outcome = scheme->run_on(engine);

  AnalysisResult result;
  result.success = outcome.success;
  result.failed_task = outcome.failed_task;
  result.probes = engine.probes();
  if (outcome.success) {
    const analysis::PartitionMetrics metrics =
        analysis::partition_metrics(engine.partition());
    result.u_sys = metrics.u_sys;
    result.u_avg = metrics.u_avg;
    result.imbalance = metrics.imbalance;
    std::ostringstream partition_out;
    io::write_partition(partition_out, engine.partition());
    result.partition_text = partition_out.str();
  }
  return result;
}

}  // namespace mcs::svc
