// Minimal data-parallel helpers for the Monte-Carlo harness.
//
// parallel_for(n, fn) executes fn(i) for i in [0, n) across a set of worker
// threads using atomic chunked work stealing.  Results must be written to
// pre-sized per-index slots by the callee, which keeps the harness
// deterministic regardless of scheduling order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mcs::util {

/// Number of workers to use by default (hardware concurrency, at least 1).
[[nodiscard]] std::size_t default_thread_count() noexcept;

/// The worker count a CLI's --threads value asks for: 0 (the flag's absent
/// default) selects default_thread_count(), and larger requests are clamped
/// to it (oversubscribing CPU-bound workers only adds scheduling noise).
[[nodiscard]] std::size_t resolve_thread_count(
    std::uint64_t requested) noexcept;

/// Runs fn(i) for every i in [0, n), distributing indices over `threads`
/// workers (the calling thread participates).  threads == 0 selects the
/// default.  Exceptions thrown by fn propagate to the caller (first one
/// wins; remaining work is drained).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace mcs::util
