// Convenience factories for the scheme line-ups used across benches/tests.
#pragma once

#include <memory>
#include <vector>

#include "mcs/partition/catpa.hpp"
#include "mcs/partition/classic.hpp"
#include "mcs/partition/hybrid.hpp"

namespace mcs::partition {

using PartitionerList = std::vector<std::unique_ptr<Partitioner>>;

/// The paper's five-scheme line-up: WFD, FFD, BFD, Hybrid, CA-TPA(alpha).
[[nodiscard]] PartitionerList paper_schemes(double alpha = 0.7);

/// Builds a single scheme by name: the paper line-up ("WFD", "FFD", "BFD",
/// "Hybrid", "CA-TPA"), the repair extension ("CA-TPA-R"), the
/// dual-criticality comparison schemes ("FP-AMC", "DBF-FFD", "GE-FFD"),
/// and the utilization-difference partitioner ("UD-TPA").  Throws
/// std::invalid_argument on unknown names.
[[nodiscard]] std::unique_ptr<Partitioner> make_scheme(const std::string& name,
                                                       double alpha = 0.7);

/// Builds a scheme from a declarative spec string — the grammar the
/// experiment registry (exp::SweepSpec) uses to describe line-ups as data.
/// Accepts every make_scheme() name plus:
///   * "WFD/eq4", "FFD/eq4", "BFD/eq4"   — Eq. (4)-only test strength,
///   * "FP-AMC/WF"                       — FP-AMC placing worst fit,
///   * "UD-TPA/eq4"                      — UD-TPA with the Eq. (4)-only gate,
///   * "UD-TPA/ge"                       — UD-TPA gated by the GE demand
///                                         test (dual-criticality only),
///   * "CA-TPA/noBal"                    — imbalance control disabled,
///   * "CA-TPA(<opts>)" with comma-separated options from
///       a=<alpha>        pinned imbalance threshold (ignores `alpha`),
///       min|first|max    Eq. (9b) probe-policy fold,
///       contrib|maxutil  ordering key,
///       nobal            disable imbalance control,
///       repair           enable single-migration repair.
/// Parenthesized CA-TPA forms use the spec string itself as the display
/// name, matching the ablation benches ("CA-TPA(min)", "CA-TPA(a=0.5)", …).
/// Throws std::invalid_argument on unknown specs.
[[nodiscard]] std::unique_ptr<Partitioner> make_scheme_spec(
    const std::string& spec, double alpha = 0.7);

/// make_scheme_spec over a list.
[[nodiscard]] PartitionerList make_scheme_list(
    const std::vector<std::string>& specs, double alpha = 0.7);

/// Every enumerable spec string of the grammar, in registry order — the
/// fixed names plus the named slash-forms.  (The parenthesized
/// "CA-TPA(<opts>)" family is open-ended and intentionally excluded.)
/// For every listed spec, make_scheme_spec(spec)->name() == spec; docs
/// tooling (`mcs_report --list-schemes`, ALGORITHMS.md coverage) and the
/// round-trip property test key off this list.
[[nodiscard]] const std::vector<std::string>& registered_scheme_specs();

}  // namespace mcs::partition
