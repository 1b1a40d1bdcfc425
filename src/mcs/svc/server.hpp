// mcs_serve: partitioning-as-a-service over a local (AF_UNIX) stream
// socket.
//
// Architecture: one accept thread feeds connections to a fixed pool of
// worker threads.  Each worker drains its connection request-by-request:
// frame the request (svc::RequestFramer), look its canonical text up in
// the shared AnalysisCache, and on a miss lease a PlacementEngine from the
// shared EnginePool, run svc::analyze, and insert the result.  All
// responses are single JSON lines (svc/protocol.hpp), written with one
// send from a buffer the connection reuses.
//
// Observability: every request increments serve.requests and records its
// handling latency in the serve.latency_us histogram under an svc.request
// trace span; the cache contributes serve.cache.{hits,misses,evictions,
// collisions}.  `mcs-serve/1 <id> stats` reads the totals back out.
//
// Shutdown: stop() (or a client "shutdown" request) closes the listening
// socket and wakes the workers; wait() joins everything.  In-flight
// connections finish their current request stream first.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mcs/analysis/placement.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/svc/cache.hpp"

namespace mcs::svc {

struct Request;

/// A mutex-guarded pool of reusable PlacementEngines.  Leasing recycles an
/// engine's buffers across requests (the same trick the Monte-Carlo
/// harness uses across trials); the pool grows on demand up to one engine
/// per concurrent request, so acquire never blocks.
class EnginePool {
 public:
  class Lease {
   public:
    Lease(EnginePool& pool, std::unique_ptr<analysis::PlacementEngine> engine)
        : pool_(pool), engine_(std::move(engine)) {}
    ~Lease() { pool_.release(std::move(engine_)); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    [[nodiscard]] analysis::PlacementEngine& engine() { return *engine_; }

   private:
    EnginePool& pool_;
    std::unique_ptr<analysis::PlacementEngine> engine_;
  };

  [[nodiscard]] Lease acquire();

 private:
  void release(std::unique_ptr<analysis::PlacementEngine> engine);

  std::mutex mutex_;
  std::vector<std::unique_ptr<analysis::PlacementEngine>> free_;
};

struct ServerConfig {
  std::string socket_path;        ///< AF_UNIX path (unlinked on bind+close)
  std::size_t workers = 2;        ///< connection-handling threads (>= 1)
  std::size_t cache_capacity = 256;
};

class Server {
 public:
  /// Binds and listens on config.socket_path (an existing socket file is
  /// replaced) and launches the accept + worker threads.  Throws
  /// std::runtime_error on socket errors.
  explicit Server(ServerConfig config);

  /// stop() + wait().
  ~Server();

  /// Initiates shutdown: no new connections are accepted, idle workers
  /// exit, in-flight connections finish.  Safe to call from any thread
  /// (including a worker handling a "shutdown" request) and idempotent.
  void stop();

  /// Blocks until the server stopped and every thread exited.  Call from
  /// the owning thread only.
  void wait();

  [[nodiscard]] const std::string& socket_path() const {
    return config_.socket_path;
  }
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void worker_loop();
  void handle_connection(int fd);
  /// Appends the response to an analyze request to `out`, its elapsed_us
  /// timed from `start`.  A miss moves the canonical text into the cache.
  void answer_analyze(Request& request,
                      std::chrono::steady_clock::time_point start,
                      std::string& out);

  ServerConfig config_;
  obs::MetricsEnabledGuard metrics_guard_{true};
  AnalysisCache cache_;
  EnginePool engines_;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_served_{0};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_connections_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  bool joined_ = false;
};

}  // namespace mcs::svc
