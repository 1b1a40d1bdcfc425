// Test-only reference copies of the dual-criticality demand gates as they
// were before the gates learned to stop once their verdict is decided: the
// GE tuning tier runs every iteration up to its cap, the uniform-scale
// tiers judge every candidate and scan LO before HI, and every scan starts
// at t = 0.  Both run on a copy of the demand scan as it was
// before it carried the demand between breakpoints: the exact sum of every
// curve at every distinct breakpoint.  They exist only to be diffed against
// analysis::ge_dual_test / analysis::dbf_dual_test and
// analysis::demand::first_violation bit for bit and are never linked into
// the library.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "mcs/analysis/dbf.hpp"
#include "mcs/analysis/demand_core.hpp"
#include "mcs/analysis/ge_test.hpp"
#include "mcs/core/taskset.hpp"

namespace mcs::analysis::reference {

/// What a reference scan judged.
struct ScanStats {
  std::size_t breakpoints = 0;  ///< distinct breakpoints judged
  /// ... of which the exact demand lay within 1e-12 of t + 1e-9.
  std::size_t near_ties = 0;
};

/// The first distinct breakpoint up to `bound` whose exact summed demand
/// exceeds t + 1e-9, or nullopt; counts into `stats` when given.
template <demand::Formula F>
[[nodiscard]] std::optional<double> first_violation(
    std::span<const demand::Curve> curves, double bound,
    ScanStats* stats = nullptr);

/// What the uniform-scale tier (tier 1) saw on one call: candidates that a
/// monotone exit covers.  Both counts use the failures this LO-before-HI
/// copy observed.
struct UniformTier {
  /// Candidates at or below an earlier one whose LO check failed.
  std::size_t lo_exits = 0;
  /// Candidates at or above an earlier one whose HI check failed.
  std::size_t hi_exits = 0;
};

/// What the GE tuning tier (tier 2) did on one call.
struct GeTuning {
  bool entered = false;   ///< tier 1 rejected every uniform candidate
  std::size_t moves = 0;  ///< greedy scale moves made
  bool hit_cap = false;   ///< ran all iterations without accepting
  /// Some move took the previously moved scale back to the exact double it
  /// held before that move (the greedy walk revisited a state).
  bool undid_move = false;
  /// LO scans run right after an LO move, which the library resumes.
  std::size_t lo_scans_after_lo_move = 0;
};

[[nodiscard]] GeResult ge_dual_test(const TaskSet& ts,
                                    std::span<const std::size_t> members,
                                    GeTuning* tuning = nullptr,
                                    UniformTier* uniform = nullptr);

[[nodiscard]] DbfResult dbf_dual_test(const TaskSet& ts,
                                      std::span<const std::size_t> members,
                                      UniformTier* uniform = nullptr);

}  // namespace mcs::analysis::reference
