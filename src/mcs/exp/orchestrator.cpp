#include "mcs/exp/orchestrator.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "mcs/exp/report.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/util/table.hpp"

namespace mcs::exp {

namespace {

util::Json artifact_json(
    const SweepSpec& spec, const SpecRunOptions& options,
    const std::string& fingerprint,
    const std::vector<std::optional<PointCheckpoint>>& points) {
  util::Json out = util::Json::object();
  out.set("format", util::Json::string("mcs-exp-artifact/1"));
  out.set("spec", util::Json::string(spec.name));
  out.set("title", util::Json::string(spec.title));
  out.set("x_label", util::Json::string(spec.x_label));
  out.set("axis", util::Json::string(axis_name(spec.axis)));
  out.set("trials", util::Json::number(options.trials));
  out.set("seed", util::Json::number(options.seed));
  out.set("alpha",
          util::Json::number_raw(util::format_double(options.alpha, 4)));
  out.set("source", util::Json::string(options.source));
  out.set("fingerprint", util::Json::string(fingerprint));
  util::Json point_array = util::Json::array();
  for (const std::optional<PointCheckpoint>& point : points) {
    point_array.push(point_to_json(*point));
  }
  out.set("points", std::move(point_array));
  return out;
}

/// Writes <name>.json/<name>.csv for a completed run, filling
/// out.json_path / out.csv_path, and then removes the checkpoint unless
/// options.keep_checkpoint.  Throws before the removal when an artifact
/// cannot be written, so the run's work survives in the checkpoint.
void write_artifacts(const SweepSpec& spec, const SpecRunOptions& options,
                     const std::vector<std::optional<PointCheckpoint>>& done,
                     SpecRunResult& out) {
  out.json_path = options.artifacts_dir + "/" + spec.name + ".json";
  std::ofstream json_out(out.json_path);
  json_out << artifact_json(spec, options, out.fingerprint, done).dump()
           << '\n';
  json_out.close();
  if (!json_out) {
    throw std::runtime_error("cannot write artifact '" + out.json_path + "'");
  }
  out.csv_path = options.artifacts_dir + "/" + spec.name + ".csv";
  write_csv(out.csv_path, out.result);
  if (!options.keep_checkpoint) {
    std::filesystem::remove(out.checkpoint_path);
  }
}

}  // namespace

std::string checkpoint_path_for(const SpecRunOptions& options,
                                const SweepSpec& spec) {
  return options.artifacts_dir + "/" + spec.name + ".checkpoint.jsonl";
}

SpecRunResult run_spec(const SweepSpec& spec, const SpecRunOptions& options) {
  const std::size_t total = spec.values.size();

  SpecRunResult out;
  out.fingerprint =
      spec_fingerprint(spec, options.trials, options.seed, options.alpha);
  out.checkpoint_path = checkpoint_path_for(options, spec);

  std::filesystem::create_directories(options.artifacts_dir);

  // Recover completed points from a checkpoint that matches this exact
  // configuration; anything else is discarded.
  std::vector<std::optional<PointCheckpoint>> done(total);
  bool resuming = false;
  if (std::optional<CheckpointData> cp =
          options.resume ? load_checkpoint(out.checkpoint_path) : std::nullopt;
      cp && cp->fingerprint == out.fingerprint && cp->total_points == total) {
    for (PointCheckpoint& point : cp->points) {
      if (point.index < total && !done[point.index]) {
        done[point.index] = std::move(point);
        ++out.resumed_points;
      }
    }
    // Cut a torn tail off, so the next record starts on a line of its own.
    std::filesystem::resize_file(out.checkpoint_path, cp->records_end);
    resuming = true;
  }

  // The first stop_after_points missing points, in index order.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < total; ++i) {
    if (done[i]) continue;
    if (options.stop_after_points != 0 &&
        pending.size() >= options.stop_after_points) {
      break;
    }
    pending.push_back(i);
  }

  std::vector<SpecPoint> points;
  points.reserve(pending.size());  // each PointWork points into its SpecPoint
  std::vector<PointWork> work;
  work.reserve(pending.size());
  for (const std::size_t i : pending) {
    points.push_back(spec_point(spec, i, options.alpha, options.seed));
    work.push_back(points.back().work());
  }

  std::size_t completed = out.resumed_points;
  {
    CheckpointWriter writer(out.checkpoint_path, spec.name, out.fingerprint,
                            total, resuming);
    const obs::MetricsEnabledGuard guard(options.collect_metrics);
    run_points(work, options.trials, options.threads, options.collect_metrics,
               [&](PointCheckpoint point) {
                 writer.append(point);
                 const std::size_t index = point.index;
                 done[index] = std::move(point);
                 ++completed;
                 if (options.progress) options.progress(completed, total);
               });
  }

  out.complete = completed == total;
  out.result.name = spec.name;
  out.result.x_label = spec.x_label;
  for (std::size_t i = 0; i < total; ++i) {
    if (!done[i]) continue;
    out.result.points.push_back(done[i]->result);
    out.point_counters.push_back(done[i]->counters);
  }

  if (out.complete) write_artifacts(spec, options, done, out);
  return out;
}

std::optional<Artifact> load_artifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  try {
    const util::Json json = util::Json::parse(text);
    if (json.at("format").as_string() != "mcs-exp-artifact/1") {
      return std::nullopt;
    }
    Artifact artifact;
    artifact.spec = json.at("spec").as_string();
    artifact.title = json.at("title").as_string();
    artifact.x_label = json.at("x_label").as_string();
    artifact.trials = json.at("trials").as_u64();
    artifact.seed = json.at("seed").as_u64();
    artifact.alpha = json.at("alpha").as_double();
    artifact.source = json.at("source").as_string();
    artifact.fingerprint = json.at("fingerprint").as_string();
    for (const util::Json& point : json.at("points").items()) {
      artifact.points.push_back(point_from_json(point));
    }
    return artifact;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace mcs::exp
