// Rendering of sweep results: the four figure panels as aligned tables
// ((a) schedulability ratio, (b) U_sys, (c) U_avg, (d) Lambda), plus a
// long-form CSV dump for external plotting.
#pragma once

#include <iosfwd>
#include <string>

#include "mcs/exp/spec.hpp"

namespace mcs::exp {

/// Which aggregate a panel shows.
enum class Metric { kRatio, kUsys, kUavg, kImbalance };

[[nodiscard]] const char* metric_name(Metric metric) noexcept;

/// Prints one panel: rows are x values, columns are schemes.
void print_panel(std::ostream& os, const SweepResult& result, Metric metric);

/// Prints all four panels with (a)-(d) captions, paper style.
void print_figure(std::ostream& os, const SweepResult& result,
                  const std::string& title);

/// Prints a per-scheme summary across the sweep: the weighted
/// schedulability (sum_x x * ratio(x) / sum_x x — the standard collapse of
/// an acceptance curve into one number, weighting loaded points more) and
/// the 95% binomial half-width of the ratio at the most loaded point.
void print_summary(std::ostream& os, const SweepResult& result);

/// 95% binomial confidence half-width for a ratio out of n trials.
[[nodiscard]] double ratio_ci95(double ratio, std::uint64_t trials);

/// Appends the sweep in long form:
/// sweep,x,scheme,trials,schedulable,ratio,ratio_ci95,u_sys,u_avg,imbalance.
void write_csv(const std::string& path, const SweepResult& result);

}  // namespace mcs::exp
