#include "mcs/svc/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "mcs/obs/trace.hpp"
#include "mcs/svc/protocol.hpp"

namespace mcs::svc {

namespace {

obs::Counter& g_requests = obs::registry().counter("serve.requests");
obs::Counter& g_errors = obs::registry().counter("serve.errors");
obs::Histogram& g_latency_us =
    obs::registry().histogram("serve.latency_us");

constexpr obs::TraceSite kRequestSite{"svc.request", "id", "key"};

/// Writes all of `bytes`.  MSG_NOSIGNAL: a client that hung up before its
/// reply gets EPIPE here, which ends its connection, instead of a SIGPIPE
/// that ends the daemon.
bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

EnginePool::Lease EnginePool::acquire() {
  {
    const std::lock_guard lock(mutex_);
    if (!free_.empty()) {
      std::unique_ptr<analysis::PlacementEngine> engine =
          std::move(free_.back());
      free_.pop_back();
      return Lease(*this, std::move(engine));
    }
  }
  return Lease(*this, std::make_unique<analysis::PlacementEngine>());
}

void EnginePool::release(std::unique_ptr<analysis::PlacementEngine> engine) {
  const std::lock_guard lock(mutex_);
  free_.push_back(std::move(engine));
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.socket_path.empty()) {
    throw std::runtime_error("mcs_serve: socket path must not be empty");
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("mcs_serve: socket path too long: " +
                             config_.socket_path);
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("mcs_serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  ::unlink(config_.socket_path.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("mcs_serve: cannot listen on " +
                             config_.socket_path + ": " + why);
  }

  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() {
  stop();
  wait();
}

void Server::stop() {
  if (stopping_.exchange(true)) return;
  // Closing the listener wakes the blocked accept(); the acceptor thread
  // then exits its loop.
  ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
}

void Server::wait() {
  if (joined_) return;
  joined_ = true;
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(config_.socket_path.c_str());
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && !stopping_.load()) continue;
      return;  // listener closed (stop()) or fatal error
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    {
      const std::lock_guard lock(queue_mutex_);
      pending_connections_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void Server::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load() || !pending_connections_.empty();
      });
      if (pending_connections_.empty()) return;  // stopping and drained
      fd = pending_connections_.front();
      pending_connections_.pop_front();
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void Server::handle_connection(int fd) {
  RequestFramer framer;
  const auto read = [fd](std::span<char> space) {
    return ::read(fd, space.data(), space.size());
  };
  std::string out;  // the response being written; its capacity is reused

  for (;;) {
    std::optional<Request> request;
    try {
      request = framer.next(read);
    } catch (const ProtocolError& e) {
      g_errors.add();
      out.clear();
      out += error_response(e.id(), e.what()).dump();
      out += '\n';
      (void)send_all(fd, out);
      return;  // cannot resynchronize a malformed stream
    }
    if (!request) return;  // clean EOF: client closed the connection

    const auto start = std::chrono::steady_clock::now();
    out.clear();
    switch (request->kind) {
      case Request::Kind::kPing:
      case Request::Kind::kShutdown:
        out += pong_response(request->id).dump();
        break;
      case Request::Kind::kStats:
        out += stats_response(request->id, cache_.stats(), requests_served())
                   .dump();
        break;
      case Request::Kind::kAnalyze:
        answer_analyze(*request, start, out);
        break;
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start);
    g_requests.add();
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    g_latency_us.record(static_cast<std::uint64_t>(elapsed.count()));

    out += '\n';
    const bool sent = send_all(fd, out);
    if (request->kind == Request::Kind::kShutdown) {
      stop();
      return;
    }
    if (!sent) return;  // the client is gone
  }
}

void Server::answer_analyze(Request& request,
                            std::chrono::steady_clock::time_point start,
                            std::string& out) {
  WireAnalyze& wire = *request.analyze;
  const std::uint64_t key = std::hash<std::string_view>{}(wire.canonical);
  const obs::ScopedSpan span(kRequestSite, request.id, key);
  try {
    std::shared_ptr<const CachedAnalysis> entry =
        cache_.lookup(key, wire.canonical);
    const bool cached = entry != nullptr;
    if (!cached) {
      // Only a miss pays for parsing the task-set body, running the
      // partitioner, the fingerprint and rendering the result; a hit is a
      // hash, a text compare and a copy of the rendered fields.
      const AnalysisRequest analyze_request = parse_analyze(wire);
      EnginePool::Lease lease = engines_.acquire();
      auto result = std::make_shared<const AnalysisResult>(
          analyze(analyze_request, lease.engine()));
      entry = cache_.insert(key, std::move(wire.canonical), std::move(result));
    }
    // Server-side handling time (cache, and on a miss parse + analysis;
    // no framing or socket I/O): the selftest derives its cache-speedup
    // ratio from this, which is far less noisy than client round trips.
    // The only response field outside the cold == warm byte-identity.
    const double handled_us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    append_analysis_response(out, request.id, entry->fingerprint, cached,
                             entry->fields, handled_us);
  } catch (const std::exception& e) {
    g_errors.add();
    out += error_response(request.id, e.what()).dump();
  }
}

}  // namespace mcs::svc
