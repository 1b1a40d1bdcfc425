// Interleaved best-of-N wall-clock timing for benches that compare code
// paths on the same workload.
//
// Each round times one run of every path, and the path that goes first
// rotates from round to round.  Host drift (a frequency change, a noisy
// neighbour) then lands on every path alike, instead of on whichever path
// happened to run all its repetitions while the host was slow, so the
// ratios between paths stay steady.  Each path keeps its best time.
//
// time_disabled_span_ns() times the tracing gate both benches hold to their
// 1% disabled-path budget.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>

#include "mcs/obs/trace.hpp"

namespace mcs::bench {

/// Best wall time in seconds of `run(path)` for each path in [0, Paths),
/// over `rounds` (>= 1) interleaved rounds.
template <std::size_t Paths, typename Run>
[[nodiscard]] std::array<double, Paths> best_interleaved_seconds(
    std::size_t rounds, Run&& run) {
  std::array<double, Paths> best{};
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < Paths; ++k) {
      const std::size_t path = (round + k) % Paths;
      const auto start = std::chrono::steady_clock::now();
      run(path);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (round == 0 || elapsed.count() < best[path]) {
        best[path] = elapsed.count();
      }
    }
  }
  return best;
}

namespace detail {

/// `iters` construct/destroy pairs of a disabled ScopedSpan.  The loop has
/// a function of its own that starts on a 64-byte boundary, so where its
/// branch falls against the 32-byte boundaries depends on this function's
/// code alone, not on edits elsewhere in the bench that includes it.  On
/// Skylake-family cores a branch that crosses such a boundary decodes
/// slowly, and the same loop reads 0.35 or 0.69 ns per span depending on
/// where it lands.
[[gnu::noinline, gnu::aligned(64)]] inline void run_disabled_spans(
    std::size_t iters) {
  static constexpr obs::TraceSite kSite{"bench.disabled_span", "i"};
  for (std::size_t i = 0; i < iters; ++i) {
    const obs::ScopedSpan span(kSite, i);
  }
}

}  // namespace detail

/// Average cost of one *disabled* ScopedSpan, the relaxed-atomic gate check
/// every instrumented call pays when tracing is off.  Best of `rounds` over
/// `iters` construct/destroy pairs.
[[nodiscard]] inline double time_disabled_span_ns(std::size_t iters,
                                                  std::size_t rounds) {
  const obs::TraceEnabledGuard off(false);
  const std::array<double, 1> best = best_interleaved_seconds<1>(
      rounds, [&](std::size_t) { detail::run_disabled_spans(iters); });
  return best[0] * 1e9 / static_cast<double>(iters);
}

}  // namespace mcs::bench
