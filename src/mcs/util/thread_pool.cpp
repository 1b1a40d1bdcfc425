#include "mcs/util/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mcs::util {

std::size_t default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t resolve_thread_count(std::uint64_t requested) noexcept {
  const std::size_t hardware = default_thread_count();
  return requested == 0 || requested > hardware
             ? hardware
             : static_cast<std::size_t>(requested);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (n == 0) return;
  if (threads == 0) threads = default_thread_count();
  if (threads > n) threads = n;

  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(threads - 1);
    for (std::size_t t = 0; t + 1 < threads; ++t) pool.emplace_back(worker);
    worker();  // the calling thread joins the work
  }

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mcs::util
