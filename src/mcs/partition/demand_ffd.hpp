// Demand-gated first-fit partitioners for dual-criticality systems:
// classical FFD ordering, but a core accepts a task iff a demand-bound test
// on its member list still passes.
//   * DemandTest::kDbf ["DBF-FFD"] — analysis/dbf.hpp, modeling the
//     higher-complexity partitioned scheme of Gu, Guan, Deng & Yi (DATE'14,
//     the paper's reference [20]);
//   * DemandTest::kGe ["GE-FFD"] — the credited test of
//     analysis/ge_test.hpp (in the spirit of Gu & Easwaran, arXiv
//     2003.05160), DBF-FFD's head-to-head counterpart with the strictly
//     tighter per-core gate.
// The accepted per-core deadline scales are not stored (the partitioner is
// stateless); re-derive them with the same test on each core's subset.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mcs/partition/partitioner.hpp"

namespace mcs::partition {

enum class DemandTest {
  kDbf,  ///< analysis::dbf_dual_test
  kGe,   ///< analysis::ge_dual_test
};

/// The member-list gate of the demand-tested schemes (DBF-FFD, GE-FFD,
/// UD-TPA/ge): counts one probe, then runs `test` on core m's members plus
/// task t.  `members` is a buffer reused across probes.  These gates work
/// off member lists, not the utilization planes, so they have no batched
/// form.
[[nodiscard]] bool demand_fits(analysis::PlacementEngine& engine,
                               DemandTest test, std::size_t t, std::size_t m,
                               std::vector<std::size_t>& members);

class DemandFfdPartitioner final : public Partitioner {
 public:
  explicit DemandFfdPartitioner(DemandTest test) : test_(test) {}

  /// Requires ts.num_levels() == 2; throws std::invalid_argument otherwise.
  [[nodiscard]] PlacementOutcome run_on(
      analysis::PlacementEngine& engine) const override;
  [[nodiscard]] std::string name() const override {
    return test_ == DemandTest::kDbf ? "DBF-FFD" : "GE-FFD";
  }

 private:
  DemandTest test_;
};

}  // namespace mcs::partition
