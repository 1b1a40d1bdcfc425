// The paper's simulation parameters (Table IV and Sec. IV-A defaults).
#pragma once

#include <array>
#include <cstdint>

#include "mcs/gen/taskset_generator.hpp"

namespace mcs::exp {

/// Defaults: M = 8, K = 4, NSU = 0.6, alpha = 0.7, IFC = 0.4.
inline constexpr std::size_t kDefaultCores = 8;
inline constexpr Level kDefaultLevels = 4;
inline constexpr double kDefaultNsu = 0.6;
inline constexpr double kDefaultAlpha = 0.7;
inline constexpr double kDefaultIfc = 0.4;

/// Paper: each data point averages 50,000 task sets.  The sweep CLIs
/// default lower for laptop runs; pass --trials 50000 for full fidelity.
inline constexpr std::uint64_t kDefaultTrials = 2000;

/// Sweep ranges (Table IV / Figs. 1-5).
inline constexpr std::array<double, 5> kNsuRange{0.4, 0.5, 0.6, 0.7, 0.8};
inline constexpr std::array<double, 5> kIfcRange{0.3, 0.4, 0.5, 0.6, 0.7};
inline constexpr std::array<double, 5> kAlphaRange{0.1, 0.3, 0.5, 0.7, 0.9};
inline constexpr std::array<std::size_t, 5> kCoreRange{2, 4, 8, 16, 32};
inline constexpr std::array<Level, 5> kLevelRange{2, 3, 4, 5, 6};

/// The generator configured with the paper defaults.
[[nodiscard]] inline gen::GenParams default_gen_params() {
  gen::GenParams p;
  p.num_cores = kDefaultCores;
  p.num_levels = kDefaultLevels;
  p.nsu = kDefaultNsu;
  p.ifc = kDefaultIfc;
  return p;
}

}  // namespace mcs::exp
