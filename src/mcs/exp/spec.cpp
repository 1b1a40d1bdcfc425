#include "mcs/exp/spec.hpp"

#include <cctype>
#include <initializer_list>
#include <string_view>

#include "mcs/util/fnv.hpp"

namespace mcs::exp {

const char* axis_name(Axis axis) noexcept {
  switch (axis) {
    case Axis::kNsu:
      return "nsu";
    case Axis::kIfc:
      return "ifc";
    case Axis::kAlpha:
      return "alpha";
    case Axis::kCores:
      return "cores";
    case Axis::kLevels:
      return "levels";
  }
  return "?";
}

namespace {

std::vector<double> to_doubles(std::initializer_list<double> values) {
  return {values};
}

SweepSpec figure_spec(std::string name, std::string title, std::string x_label,
                      Axis axis, std::vector<double> values) {
  SweepSpec spec;
  spec.name = std::move(name);
  spec.title = std::move(title);
  spec.x_label = std::move(x_label);
  spec.axis = axis;
  spec.values = std::move(values);
  spec.base = default_gen_params();
  return spec;
}

SweepSpec ablation_spec(std::string name, std::string title,
                        std::vector<std::string> schemes) {
  SweepSpec spec = figure_spec(std::move(name), std::move(title), "NSU",
                               Axis::kNsu, {kNsuRange.begin(), kNsuRange.end()});
  spec.schemes = std::move(schemes);
  return spec;
}

std::vector<SweepSpec> build_specs() {
  std::vector<SweepSpec> specs;

  specs.push_back(figure_spec("fig1", "Figure 1 - varying NSU", "NSU",
                              Axis::kNsu,
                              {kNsuRange.begin(), kNsuRange.end()}));
  specs.push_back(figure_spec("fig2", "Figure 2 - varying IFC", "IFC",
                              Axis::kIfc,
                              {kIfcRange.begin(), kIfcRange.end()}));
  SweepSpec fig3 =
      figure_spec("fig3", "Figure 3 - varying alpha", "alpha", Axis::kAlpha,
                  {kAlphaRange.begin(), kAlphaRange.end()});
  fig3.share_workloads_across_points = true;
  specs.push_back(std::move(fig3));
  specs.push_back(figure_spec("fig4", "Figure 4 - varying cores", "M",
                              Axis::kCores, to_doubles({2, 4, 8, 16, 32})));
  specs.push_back(figure_spec("fig5", "Figure 5 - varying criticality levels",
                              "K", Axis::kLevels,
                              to_doubles({2, 3, 4, 5, 6})));

  specs.push_back(ablation_spec(
      "a1", "Ablation A1 - imbalance control",
      {"CA-TPA/noBal", "CA-TPA(a=0.1)", "CA-TPA(a=0.3)", "CA-TPA(a=0.5)",
       "CA-TPA(a=0.7)", "CA-TPA(a=0.9)"}));
  specs.push_back(ablation_spec(
      "a2", "Ablation A2 - task ordering",
      {"CA-TPA(contrib)", "CA-TPA(maxutil)", "FFD"}));
  specs.push_back(ablation_spec(
      "a3", "Ablation A3 - probe policy",
      {"CA-TPA(min)", "CA-TPA(first)", "CA-TPA(max)"}));
  specs.push_back(ablation_spec(
      "a4", "Ablation A4 - test strength",
      {"FFD/eq4", "FFD", "WFD/eq4", "WFD"}));

  // Head-to-head panels racing the retrieved competitor schemes against
  // CA-TPA (see ALGORITHMS.md).  H1 runs the utilization-difference
  // partitioner on the paper's K=4 workload; H2 drops to dual-criticality,
  // where the demand-bound gates (DBF, GE) are defined, and races the gate
  // strengths.
  specs.push_back(ablation_spec(
      "h1", "Head-to-head H1 - utilization-difference partitioning (K=4)",
      {"CA-TPA", "UD-TPA", "UD-TPA/eq4", "WFD", "FFD"}));
  SweepSpec h2 = ablation_spec(
      "h2", "Head-to-head H2 - dual-criticality acceptance gates (K=2)",
      {"CA-TPA", "UD-TPA", "UD-TPA/ge", "GE-FFD", "DBF-FFD"});
  h2.base.num_levels = 2;
  // The demand-bound gates scan breakpoint lists per probe, so this panel
  // runs a smaller platform than the utilization-based ones: M=4 and a
  // fixed N keep a full sweep affordable while the gate ranking is already
  // visible at this scale.
  h2.base.num_cores = 4;
  h2.base.num_tasks = 48;
  // The K=2 platform saturates later than the K=4 one, and the gate
  // strengths only separate near saturation — sweep the upper NSU range.
  h2.values = {0.6, 0.7, 0.8, 0.85, 0.9, 0.95};
  specs.push_back(std::move(h2));

  return specs;
}

std::string lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

const std::vector<SweepSpec>& builtin_specs() {
  static const std::vector<SweepSpec> specs = build_specs();
  return specs;
}

const SweepSpec* find_spec(const std::string& name) {
  const std::string key = lower(name);
  for (const SweepSpec& spec : builtin_specs()) {
    if (spec.name == key) return &spec;
  }
  return nullptr;
}

std::string spec_names() {
  std::string out;
  for (const SweepSpec& spec : builtin_specs()) {
    if (!out.empty()) out += ", ";
    out += spec.name;
  }
  return out;
}

SpecPoint spec_point(const SweepSpec& spec, std::size_t index, double alpha,
                     std::uint64_t seed) {
  const double value = spec.values[index];
  SpecPoint point{.index = index,
                  .x = value,
                  .params = spec.base,
                  .seed = spec.share_workloads_across_points
                              ? seed
                              : gen::derive_seed(seed, index)};
  switch (spec.axis) {
    case Axis::kNsu:
      point.params.nsu = value;
      break;
    case Axis::kIfc:
      point.params.ifc = value;
      break;
    case Axis::kAlpha:
      alpha = value;
      break;
    case Axis::kCores:
      point.params.num_cores = static_cast<std::size_t>(value);
      break;
    case Axis::kLevels:
      point.params.num_levels = static_cast<Level>(value);
      break;
  }
  point.schemes = spec.schemes.empty()
                      ? partition::paper_schemes(alpha)
                      : partition::make_scheme_list(spec.schemes, alpha);
  return point;
}

SweepResult run_sweep(
    const SweepSpec& spec, const RunOptions& options, double alpha,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  const std::size_t total = spec.values.size();
  std::vector<SpecPoint> points;
  points.reserve(total);  // each PointWork points into its SpecPoint
  std::vector<PointWork> work;
  work.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    points.push_back(spec_point(spec, i, alpha, options.seed));
    work.push_back(points.back().work());
  }
  SweepResult result{.name = spec.name,
                     .x_label = spec.x_label,
                     .points = std::vector<PointResult>(total)};
  std::size_t completed = 0;
  run_points(work, options.trials, options.threads, false,
             [&](PointCheckpoint point) {
               result.points[point.index] = std::move(point.result);
               ++completed;
               if (progress) progress(completed, total);
             });
  return result;
}

std::string spec_fingerprint(const SweepSpec& spec, std::uint64_t trials,
                             std::uint64_t seed, double alpha) {
  util::Fnv1a h;
  h.feed_str("mcs-spec-fingerprint/1");
  h.feed_str(spec.name);
  h.feed_str(axis_name(spec.axis));
  h.feed_u64(spec.values.size());
  for (const double v : spec.values) h.feed_double(v);
  const gen::GenParams& p = spec.base;
  h.feed_u64(p.num_cores);
  h.feed_u64(p.num_levels);
  h.feed_u64(p.random_levels ? 1 : 0);
  h.feed_double(p.nsu);
  h.feed_double(p.ifc);
  h.feed_u64(p.num_tasks);
  for (const auto& [lo, hi] : p.period_classes) {
    h.feed_double(lo);
    h.feed_double(hi);
  }
  h.feed_double(p.wcet_spread_lo);
  h.feed_double(p.wcet_spread_hi);
  h.feed_u64(spec.schemes.size());
  for (const std::string& s : spec.schemes) h.feed_str(s);
  h.feed_u64(spec.share_workloads_across_points ? 1 : 0);
  h.feed_u64(trials);
  h.feed_u64(seed);
  h.feed_double(alpha);
  return h.hex();
}

}  // namespace mcs::exp
