#include "mcs/exp/report.hpp"

#include <ostream>

#include <cmath>

#include "mcs/util/csv.hpp"
#include "mcs/util/table.hpp"

namespace mcs::exp {

const char* metric_name(Metric metric) noexcept {
  switch (metric) {
    case Metric::kRatio:
      return "schedulability ratio";
    case Metric::kUsys:
      return "system utilization U_sys";
    case Metric::kUavg:
      return "average core utilization U_avg";
    case Metric::kImbalance:
      return "workload imbalance factor Lambda";
  }
  return "?";
}

namespace {

double metric_value(const SchemeAggregate& agg, Metric metric) {
  switch (metric) {
    case Metric::kRatio:
      return agg.ratio();
    case Metric::kUsys:
      return agg.u_sys.mean();
    case Metric::kUavg:
      return agg.u_avg.mean();
    case Metric::kImbalance:
      return agg.imbalance.mean();
  }
  return 0.0;
}

}  // namespace

void print_panel(std::ostream& os, const SweepResult& result, Metric metric) {
  if (result.points.empty()) return;
  std::vector<std::string> header{result.x_label};
  for (const SchemeAggregate& agg : result.points.front().schemes) {
    header.push_back(agg.scheme);
  }
  util::Table table(std::move(header));
  for (const PointResult& pt : result.points) {
    table.begin_row();
    table.add_cell(pt.x, 2);
    for (const SchemeAggregate& agg : pt.schemes) {
      table.add_cell(metric_value(agg, metric), 4);
    }
  }
  table.print(os);
}

void print_figure(std::ostream& os, const SweepResult& result,
                  const std::string& title) {
  os << "=== " << title << " ===\n";
  const char panel = 'a';
  const Metric metrics[] = {Metric::kRatio, Metric::kUsys, Metric::kUavg,
                            Metric::kImbalance};
  for (int i = 0; i < 4; ++i) {
    os << '\n'
       << '(' << static_cast<char>(panel + i) << ") " << metric_name(metrics[i])
       << '\n';
    print_panel(os, result, metrics[i]);
  }
  if (!result.points.empty() && !result.points.front().schemes.empty()) {
    os << "\n[" << result.points.front().schemes.front().trials
       << " task sets per point]\n";
  }
}

double ratio_ci95(double ratio, std::uint64_t trials) {
  if (trials == 0) return 0.0;
  return 1.96 * std::sqrt(ratio * (1.0 - ratio) /
                          static_cast<double>(trials));
}

void print_summary(std::ostream& os, const SweepResult& result) {
  if (result.points.empty()) return;
  util::Table table({"scheme", "weighted schedulability",
                     "ratio@max-x (+/- 95% CI)"});
  const PointResult& last = result.points.back();
  for (std::size_t s = 0; s < last.schemes.size(); ++s) {
    double weighted = 0.0;
    double weight_sum = 0.0;
    for (const PointResult& pt : result.points) {
      weighted += pt.x * pt.schemes[s].ratio();
      weight_sum += pt.x;
    }
    table.begin_row();
    table.add_cell(last.schemes[s].scheme);
    table.add_cell(weight_sum > 0.0 ? weighted / weight_sum : 0.0, 4);
    const double r = last.schemes[s].ratio();
    table.add_cell(util::format_double(r, 4) + " +/- " +
                   util::format_double(
                       ratio_ci95(r, last.schemes[s].trials), 4));
  }
  table.print(os);
}

void write_csv(const std::string& path, const SweepResult& result) {
  util::CsvWriter csv(path,
                      {"sweep", "x", "scheme", "trials", "schedulable",
                       "ratio", "ratio_ci95", "u_sys", "u_avg", "imbalance"});
  for (const PointResult& pt : result.points) {
    for (const SchemeAggregate& agg : pt.schemes) {
      csv.write_row({result.name, util::format_double(pt.x, 4),
                     agg.scheme, std::to_string(agg.trials),
                     std::to_string(agg.schedulable),
                     util::format_double(agg.ratio(), 6),
                     util::format_double(ratio_ci95(agg.ratio(), agg.trials), 6),
                     util::format_double(agg.u_sys.mean(), 6),
                     util::format_double(agg.u_avg.mean(), 6),
                     util::format_double(agg.imbalance.mean(), 6)});
    }
  }
}

}  // namespace mcs::exp
