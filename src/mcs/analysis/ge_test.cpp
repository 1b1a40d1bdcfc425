#include "mcs/analysis/ge_test.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "mcs/analysis/demand_core.hpp"
#include "mcs/obs/metrics.hpp"

namespace mcs::analysis {

namespace {

using demand::Curve;

/// The credited curves, in the demand, both tiers and ge_dbf_hi alike.
constexpr demand::Formula kFormula = demand::Formula::kCredited;
using Scratch = demand::GateScratch<kFormula>;

/// One grid step: what a tuning move adds to or takes from a scale.
constexpr double kTuningStep = 1.0 / static_cast<double>(demand::kScaleGrid);

// Tier-2 calls and how each ended; registered once, no-ops while metrics
// are disabled.
obs::Counter& g_tier2_calls = obs::registry().counter("demand.tier2_calls");
obs::Counter& g_tier2_accepted =
    obs::registry().counter("demand.tier2_accepted");
obs::Counter& g_tier2_stuck = obs::registry().counter("demand.tier2_stuck");
obs::Counter& g_tier2_cycle = obs::registry().counter("demand.tier2_cycle");
obs::Counter& g_tier2_cap = obs::registry().counter("demand.tier2_cap");

/// Evaluates both demand tests at the per-member scales in scratch.scales,
/// LO before HI, the LO scan resumed at `lo_resume`.  On failure returns
/// (mode, t): mode 0 = LO-test violation, 1 = HI-test violation.
std::optional<std::pair<std::size_t, double>> ge_violation(
    const TaskSet& ts, std::span<const std::size_t> members,
    std::optional<demand::ScanResume> lo_resume, Scratch& scratch,
    demand::Work& work) {
  demand::ModeCurves& curves = scratch.curves;
  demand::build_curves(ts, members, scratch.scales, curves);
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const std::optional<double> bound = demand::analysis_bound(curves[mode]);
    if (!bound) return std::make_pair(mode, 0.0);  // conservative
    if (*bound > 0.0) {
      demand::LaneScan<kFormula>& scan = scratch.scans[mode];
      scan.start(curves[mode], *bound, mode == 0 ? lo_resume : std::nullopt);
      scan.advance(std::numeric_limits<std::size_t>::max());
      scan.count(work);
      if (const auto t = scan.violation()) return std::make_pair(mode, *t);
    }
  }
  return std::nullopt;
}

/// One tuning move: the member whose scale moved, and whether it grew.
struct Move {
  std::size_t member;
  bool up;
};

/// The tuning tier's start: HI members at scale 0.5, LO members at 1.
void start_state(const TaskSet& ts, std::span<const std::size_t> members,
                 std::vector<double>& scales) {
  scales.resize(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    scales[m] = ts[members[m]].level() == 2 ? 0.5 : 1.0;
  }
}

/// Member m's share of a state's fingerprint, which is the wrapping sum of
/// the shares: a splitmix64 mix of its index and its scale's bits.  A move
/// updates the sum in O(1), and equal states have equal fingerprints.
std::uint64_t share(std::size_t m, double scale) {
  std::uint64_t z = std::bit_cast<std::uint64_t>(scale) +
                    0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(m) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Whether `scales`, fingerprinted `print`, is a state the walk visited
/// before: an earlier fingerprint in `seen` (seen[j] is the state after j
/// moves) matches, and replaying the first j moves from the start
/// reproduces `scales` bit for bit.
bool revisits(const TaskSet& ts, std::span<const std::size_t> members,
              std::span<const double> scales,
              std::span<const std::uint64_t> seen,
              std::span<const Move> moves, std::uint64_t print,
              std::vector<double>& replay) {
  for (std::size_t j = 0; j < seen.size(); ++j) {
    if (seen[j] != print) continue;
    start_state(ts, members, replay);
    for (std::size_t k = 0; k < j; ++k) {
      replay[moves[k].member] += moves[k].up ? kTuningStep : -kTuningStep;
    }
    if (std::equal(replay.begin(), replay.end(), scales.begin(),
                   [](double a, double b) {
                     return std::bit_cast<std::uint64_t>(a) ==
                            std::bit_cast<std::uint64_t>(b);
                   })) {
      return true;
    }
  }
  return false;
}

/// Both tiers on a nonempty member list: whether they accept, with the
/// accepted scale per member in scratch.scales.  Counts its work into
/// `work`.
bool ge_tiers(const TaskSet& ts, std::span<const std::size_t> members,
              Scratch& scratch, demand::Work& work) {
  std::vector<double>& scales = scratch.scales;

  // Tier 1: the uniform-scale search shared with dbf_dual_test.
  if (const auto x =
          demand::uniform_scale<kFormula>(ts, members, scratch, work)) {
    for (std::size_t m = 0; m < members.size(); ++m) {
      scales[m] = ts[members[m]].level() == 2 ? *x : 1.0;
    }
    return true;
  }

  // Tier 2: greedy per-task tuning from a mid-grid start.
  std::size_t hi_count = 0;
  for (std::size_t m : members) hi_count += ts[m].level() == 2 ? 1u : 0u;
  if (hi_count == 0) return false;  // pure-LO sets are settled by tier 1
  g_tier2_calls.add();
  start_state(ts, members, scales);
  const std::size_t max_iter = std::min(
      8 * demand::kScaleGrid * (hi_count + 1), demand::kGreedyIterCap);

  // The walk so far: seen[j] fingerprints the state after j moves, which
  // moves[0..j) reached from the start; see the repeated-state exit below.
  std::array<std::uint64_t, demand::kGreedyIterCap + 1> seen{};
  std::array<Move, demand::kGreedyIterCap> moves{};
  std::uint64_t print = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    print += share(m, scales[m]);
  }
  seen[0] = print;
  // After an LO move the LO scan resumes at the last LO violation: the
  // move only put one LO deadline later (see demand_core.hpp).
  std::optional<demand::ScanResume> lo_resume;
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    const auto violation = ge_violation(ts, members, lo_resume, scratch, work);
    if (!violation) {
      g_tier2_accepted.add();
      return true;
    }
    const auto [mode, t] = *violation;
    // Pick the HI member contributing the most demand at the violation
    // point whose scale can still move in the helpful direction.
    std::size_t best = members.size();
    double best_demand = 0.0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const McTask& task = ts[members[m]];
      if (task.level() != 2) continue;
      const double period = task.period();
      double contrib;
      bool movable;
      if (mode == 0) {
        const Curve c{scales[m] * period, period, task.wcet(1), 0.0};
        contrib = demand::curve_demand<kFormula>(c, t);
        movable = scales[m] <= 1.0 - kTuningStep * 0.5;
      } else {
        contrib = ge_dbf_hi(task, t, scales[m]);
        movable = scales[m] >= 2.0 * kTuningStep - kTuningStep * 0.5;
      }
      if (movable && contrib > best_demand) {
        best_demand = contrib;
        best = m;
      }
    }
    if (best == members.size() || best_demand <= 0.0) {
      g_tier2_stuck.add();
      return false;
    }
    const double prior = scales[best];
    scales[best] += mode == 0 ? kTuningStep : -kTuningStep;
    moves[iter] = Move{best, mode == 0};
    print += share(best, scales[best]) - share(best, prior);
    lo_resume = mode == 0 ? std::optional(demand::ScanResume{t, best})
                          : std::nullopt;
    // Repeated-state exit (see ge_test.hpp): back at a visited state, the
    // walk can only cycle until the cap, so reject now, as the cap would.
    if (revisits(ts, members, scales, std::span(seen).first(iter + 1),
                 std::span(moves).first(iter + 1), print, scratch.replay)) {
      g_tier2_cycle.add();
      return false;
    }
    seen[iter + 1] = print;
  }
  g_tier2_cap.add();
  return false;  // iteration cap: conservatively reject
}

/// ge_dual_test's verdict on `members`, with the accepted scale per member
/// left in scratch.scales.
bool ge_verdict(const TaskSet& ts, std::span<const std::size_t> members,
                Scratch& scratch) {
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(
        "ge_dual_test: requires a dual-criticality task set");
  }
  if (members.empty()) return true;
  demand::Work work;
  const bool accepted = ge_tiers(ts, members, scratch, work);
  work.flush();
  return accepted;
}

}  // namespace

double ge_dbf_hi(const McTask& task, double t, double x) {
  if (task.level() < 2) return 0.0;
  const double period = task.period();
  const Curve c{period - x * period, period, task.wcet(2), task.wcet(1)};
  return demand::curve_demand<kFormula>(c, t);
}

GeResult ge_dual_test(const TaskSet& ts,
                      std::span<const std::size_t> members) {
  Scratch& scratch = demand::gate_scratch<kFormula>();
  GeResult result;
  result.schedulable = ge_verdict(ts, members, scratch);
  result.scales.assign(ts.size(), 1.0);
  if (result.schedulable) {
    for (std::size_t m = 0; m < members.size(); ++m) {
      result.scales[members[m]] = scratch.scales[m];
    }
  }
  return result;
}

bool ge_dual_schedulable(const TaskSet& ts,
                         std::span<const std::size_t> members) {
  return ge_verdict(ts, members, demand::gate_scratch<kFormula>());
}

GeResult ge_dual_test(const TaskSet& ts) {
  std::vector<std::size_t> all(ts.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return ge_dual_test(ts, all);
}

}  // namespace mcs::analysis
