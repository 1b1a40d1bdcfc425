#include "serve.hpp"

#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <barrier>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mcs/analysis/placement.hpp"
#include "mcs/gen/rng.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/svc/server.hpp"
#include "mcs/util/fnv.hpp"

namespace mcs::perfbench {

namespace {

constexpr const char* kScheme = "CA-TPA";
constexpr std::size_t kCores = 8;
constexpr double kAlpha = 0.7;
/// Every blocking socket call gives up after this long, so a stalled
/// daemon turns into failed ops instead of a hung run.
constexpr int kIoTimeoutS = 5;
/// The reported tail.  p99 would have thousands of samples beyond it, but
/// on a shared 4-vCPU guest it measures the host: under 15-20% steal, p99
/// of one run's 5 s windows ranged 1.6-7.7 ms while p90 stayed within 12%.
constexpr int kTail = 90;

void append_exact(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);  // round-trip precision
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

// The socket file is removed on every way out: normal return and
// exceptions (SocketFile's destructor) and termination signals (the
// handler).
char g_socket_path[sizeof(sockaddr_un::sun_path)] = {};

extern "C" void remove_socket_and_exit(int sig) {
  if (g_socket_path[0] != '\0') ::unlink(g_socket_path);
  ::_exit(128 + sig);
}

class SocketFile {
 public:
  explicit SocketFile(std::string path) : path_(std::move(path)) {
    if (path_.size() >= sizeof(g_socket_path)) {
      throw std::runtime_error("socket path too long: " + path_);
    }
    std::memcpy(g_socket_path, path_.c_str(), path_.size() + 1);
    for (const int sig : {SIGINT, SIGTERM, SIGHUP}) {
      std::signal(sig, remove_socket_and_exit);
    }
  }
  ~SocketFile() {
    ::unlink(path_.c_str());
    g_socket_path[0] = '\0';
  }
  SocketFile(const SocketFile&) = delete;
  SocketFile& operator=(const SocketFile&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Confines the calling thread, and so every thread it starts afterwards,
/// to the first two CPUs it may use.  The two polling closed loops then
/// share those CPUs with the server's workers and keep them busy, so a
/// request or a response never has to wake an idle virtual CPU, which under
/// host contention takes long and erratic time.  It does not remove the
/// host's own drift; the run-to-run spread that remains is measured in
/// perfbench/README.md.
void confine_to_two_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t two;
  CPU_ZERO(&two);
  int picked = 0;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE && picked < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &two);
      ++picked;
    }
  }
  if (picked == 2) ::sched_setaffinity(0, sizeof(two), &two);
}

/// A client connection.  Sends block with a timeout; reads poll.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const timeval timeout{.tv_sec = kIoTimeoutS, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_all(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// One '\n'-terminated line, without the newline.  False on EOF, error,
  /// timeout, or a line longer than the buffer.  Polls without sleeping,
  /// yielding to any thread that shares the CPU (see confine_to_two_cpus).
  bool read_line(std::string& line) {
    for (;;) {
      const char* data = buffer_.data();
      const void* newline =
          std::memchr(data + begin_, '\n', end_ - begin_);
      if (newline != nullptr) {
        const auto stop = static_cast<std::size_t>(
            static_cast<const char*>(newline) - data);
        line.assign(data + begin_, data + stop);
        begin_ = stop + 1;
        if (begin_ == end_) begin_ = end_ = 0;
        return true;
      }
      if (begin_ > 0) {
        std::memmove(buffer_.data(), data + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
      }
      if (end_ == buffer_.size()) return false;
      const std::int64_t deadline = now_ns() + kIoTimeoutS * 1000000000LL;
      ssize_t n = 0;
      for (;;) {
        n = ::recv(fd_, buffer_.data() + end_, buffer_.size() - end_,
                   MSG_DONTWAIT);
        if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK) ||
            now_ns() >= deadline) {
          break;
        }
        sched_yield();
      }
      if (n <= 0) return false;
      end_ += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_ = -1;
  std::vector<char> buffer_ = std::vector<char>(1 << 16);
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

struct ServeSet {
  std::string request;  ///< wire bytes; the request id is the set index
  ExpectedResponse expected;
  double analyze_us = 0.0;  ///< in-process svc::analyze time at set-up,
                            ///< reference microseconds
};

/// Sets made between two gauge readings at set-up.
constexpr std::size_t kSetsPerStretch = 64;

/// Paper-default sets (Table IV: M = 8, K = 4, N ~ U{40..200}, NSU 0.6),
/// their requests, and the expected responses from in-process analysis.
/// Ends a stretch of `clock` every kSetsPerStretch sets.
std::vector<ServeSet> make_sets(std::uint64_t seed, ReferenceStopwatch& clock) {
  gen::GenParams params;
  params.num_cores = kCores;
  params.num_levels = 4;
  params.random_levels = false;
  params.nsu = 0.6;
  params.ifc = 0.4;
  params.num_tasks = 0;
  params.period_classes = {{{50.0, 200.0}, {200.0, 500.0}, {500.0, 2000.0}}};
  params.wcet_spread_lo = 0.2;
  params.wcet_spread_hi = 1.8;
  const std::uint64_t point_seed = gen::derive_seed(seed, 0);

  gen::TrialArena arena;
  analysis::PlacementEngine engine;
  std::vector<ServeSet> sets(ServeSchedule::kSets);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const svc::AnalysisRequest request{
        kScheme, kCores, kAlpha, arena.generate_trial(params, point_seed, i)};
    sets[i].request = render_request(i, request);
    const std::int64_t start = now_ns();
    const svc::AnalysisResult result = svc::analyze(request, engine);
    sets[i].analyze_us = static_cast<double>(now_ns() - start) * 1e-3;
    sets[i].expected =
        expected_response(i, svc::request_fingerprint(request), result);
    if ((i + 1) % kSetsPerStretch == 0 || i + 1 == sets.size()) {
      const double slowdown = clock.lap();
      for (std::size_t j = i / kSetsPerStretch * kSetsPerStretch; j <= i;
           ++j) {
        sets[j].analyze_us /= slowdown;
      }
    }
  }
  return sets;
}

/// What the set-up builds.  Members are destroyed in reverse order, so the
/// connections close before the server stops: a server worker owns its
/// connection until EOF.
struct ServeSetup {
  std::vector<ServeSet> sets;
  std::unique_ptr<svc::Server> server;
  std::vector<std::unique_ptr<Connection>> connections;
};

/// Sets, requests and expected responses; a server at daemon defaults; one
/// connection per closed loop, each of which warms its hot sets.  The
/// server start and the warm-up are the last stretch of `clock`.
ServeSetup set_up(std::uint64_t seed, const std::string& socket_path,
                  ReferenceStopwatch& clock, Report& report) {
  ServeSetup s;
  s.sets = make_sets(seed, clock);
  s.server = std::make_unique<svc::Server>(
      svc::ServerConfig{.socket_path = socket_path,
                        .workers = 2,
                        .cache_capacity = ServeSchedule::kCacheCapacity});
  std::string line;
  std::string why;
  for (std::size_t c = 0; c < ServeSchedule::kConnections; ++c) {
    Connection& connection =
        *s.connections.emplace_back(std::make_unique<Connection>(socket_path));
    for (std::size_t k = 0; k < ServeSchedule::kHot; ++k) {
      const ServeSet& set = s.sets[ServeSchedule::hot_set(c, k)];
      if (!connection.send_all(set.request) ||
          !connection.read_line(line)) {
        throw std::runtime_error("warm-up request got no response");
      }
      if (!check_response(line, set.expected, false, why)) {
        report.wrong("warm-up: " + why);
      }
    }
  }
  clock.lap();
  return s;
}

/// What the connection threads of one timed window share: a barrier that
/// holds every closed loop while the gauge runs, and each thread's reading.
struct WindowSync {
  WindowSync(int n_blocks, PeakRss& peak_rss)
      : blocks(n_blocks),
        barrier(static_cast<std::ptrdiff_t>(ServeSchedule::kConnections)),
        rss(peak_rss) {}

  int blocks;  ///< blocks of kGaugeBlockNs in the window
  std::barrier<> barrier;
  std::array<double, ServeSchedule::kConnections> reading{};
  PeakRss& rss;  ///< sampled by connection 0 after every block
};

/// One connection's closed loop and what it observed.  Times are reference
/// times (see HostGauge).
struct ConnectionRun {
  explicit ConnectionRun(std::uint64_t sample_seed) : latency(sample_seed) {
    block_ns.reserve(kMaxBlockOps);
  }

  Connection* connection = nullptr;
  Tracer tracer;
  HostGauge gauge;
  std::uint64_t next_op = 0;
  bool broken = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t hits = 0;  ///< completed hit ops
  std::uint64_t misses = 0;
  LatencySamples latency;  ///< round trips of the untraced windows
  std::vector<std::int64_t> block_ns;  ///< the block's untraced round trips
  double slowdown = 1.0;  ///< the latest gauge reading (mean over threads)
  std::vector<double> readings;  ///< every reading of the timed windows
  /// [untraced, traced] per block: ops over the block's reference time.
  std::vector<double> block_rate[2];
  double wall_seconds[2] = {0, 0};  ///< [untraced, traced] wall time
  std::uint64_t ops[2] = {0, 0};  ///< [untraced, traced] attempted ops
  // Traced windows: sums for the per-layer split of a request.
  double window_us[2] = {0, 0};  ///< [hit, miss] server elapsed_us
  double outside_us[2] = {0, 0};  ///< [hit, miss] round trip - elapsed_us
  std::uint64_t traced[2] = {0, 0};
  double analyze_us = 0.0;  ///< in-process analysis of the traced misses
  std::string first_error;
  std::string line;
};

/// One request and its checks.  Returns the round trip in ns, or -1 when
/// the op failed; a traced op adds its window/outside split to `window_us`
/// and `outside_us`.
std::int64_t one_op(ConnectionRun& run, std::size_t index,
                    const std::vector<ServeSet>& sets, bool traced,
                    double (&window_us)[2], double (&outside_us)[2]) {
  const std::uint64_t op = run.next_op++;
  const ServeSet& set = sets[ServeSchedule::set_of(index, op)];
  const bool hit = ServeSchedule::is_hit(op);
  run.tracer.set_op(op);
  bool io_ok = false;
  const std::int64_t start = now_ns();
  {
    const Scope op_span(run.tracer, kOpSpan);
    {
      const Scope span(run.tracer, "svc.send");
      io_ok = run.connection->send_all(set.request);
    }
    if (io_ok) {
      const Scope span(run.tracer, "svc.recv");
      io_ok = run.connection->read_line(run.line);
    }
  }
  const std::int64_t round_trip_ns = now_ns() - start;
  ++run.attempted;
  std::string why;
  std::optional<double> window;
  if (!io_ok) {
    why = "no response (timeout or disconnect)";
    run.broken = true;  // the stream cannot be resynchronized
  } else {
    window = check_response(run.line, set.expected, hit, why);
    if (!window) ++run.wrong;
  }
  if (!window) {
    ++run.failed;
    if (run.first_error.empty()) {
      run.first_error = "connection " + std::to_string(index) + " op " +
                        std::to_string(op) + ": " + why;
    }
    return -1;
  }
  ++(hit ? run.hits : run.misses);
  if (traced) {
    const int kind = hit ? 0 : 1;
    window_us[kind] += *window;
    outside_us[kind] += static_cast<double>(round_trip_ns) * 1e-3 - *window;
    ++run.traced[kind];
    if (!hit) run.analyze_us += set.analyze_us;
  }
  return round_trip_ns;
}

/// A connection thread's closed loop over one timed window: `sync.blocks`
/// blocks of requests, each followed by a gauge reading that every thread
/// takes at once while no request is in flight.
void closed_loop(ConnectionRun& run, std::size_t index,
                 const std::vector<ServeSet>& sets, bool traced,
                 WindowSync& sync) {
  run.tracer.set_enabled(traced);
  const int kind = traced ? 1 : 0;
  for (int block = 0; block < sync.blocks; ++block) {
    const std::int64_t start = now_ns();
    const std::int64_t end = start + kGaugeBlockNs;
    const std::size_t first_span = run.tracer.spans().size();
    double window_us[2] = {0, 0};
    double outside_us[2] = {0, 0};
    std::uint64_t ops = 0;
    run.block_ns.clear();
    while (!run.broken) {
      // Whole groups only, so every block keeps the 3:1 hit/miss mix.
      if (run.next_op % 4 == 0 &&
          (now_ns() >= end || run.block_ns.size() + 4 > kMaxBlockOps)) {
        break;
      }
      ++ops;
      try {
        const std::int64_t ns =
            one_op(run, index, sets, traced, window_us, outside_us);
        if (ns >= 0 && !traced) run.block_ns.push_back(ns);
      } catch (const std::exception& e) {
        run.broken = true;
        ++run.failed;
        run.first_error =
            "connection " + std::to_string(index) + ": " + e.what();
      }
    }
    const double wall_s = static_cast<double>(now_ns() - start) * 1e-9;

    sync.barrier.arrive_and_wait();  // no request in flight
    if (index == 0) sync.rss.sample();
    sync.reading[index] = run.gauge.slowdown();
    sync.barrier.arrive_and_wait();  // every reading taken
    double after = 0.0;
    for (const double r : sync.reading) after += r;
    after /= static_cast<double>(sync.reading.size());
    const double slowdown = 0.5 * (run.slowdown + after);
    run.slowdown = after;
    run.readings.push_back(after);

    for (const std::int64_t ns : run.block_ns) {
      run.latency.add(static_cast<double>(ns) * 1e-3 / slowdown);
    }
    for (int k = 0; k < 2; ++k) {
      run.window_us[k] += window_us[k] / slowdown;
      run.outside_us[k] += outside_us[k] / slowdown;
    }
    run.tracer.set_slowdown_from(first_span, slowdown);
    run.block_rate[kind].push_back(static_cast<double>(ops) * slowdown /
                                   wall_s);
    run.wall_seconds[kind] += wall_s;
    run.ops[kind] += ops;
  }
}

}  // namespace

std::size_t ServeSchedule::set_of(std::size_t connection,
                                  std::uint64_t op) {
  const std::uint64_t group = op / 4;
  const std::uint64_t slot = op % 4;
  if (slot < 3) return connection * kHot + (3 * group + slot) % kHot;
  return kConnections * kHot + connection * kCold + group % kCold;
}

std::string render_request(std::uint64_t id,
                           const svc::AnalysisRequest& request) {
  const TaskSet& ts = request.taskset;
  std::string out = "mcs-serve/1 " + std::to_string(id) + " analyze " +
                    request.scheme_spec + ' ' +
                    std::to_string(request.num_cores) + ' ';
  append_exact(out, request.alpha);
  out += "\n# mcs task set: " + std::to_string(ts.size()) +
         " tasks, K = " + std::to_string(ts.num_levels()) + "\nK " +
         std::to_string(ts.num_levels()) + '\n';
  for (const McTask& task : ts) {
    out += "task " + std::to_string(task.id()) + ' ';
    append_exact(out, task.period());
    for (const double c : task.wcets()) {
      out += ' ';
      append_exact(out, c);
    }
    out += '\n';
  }
  out += "end\n";
  return out;
}

ExpectedResponse expected_response(std::uint64_t id,
                                   std::uint64_t fingerprint,
                                   const svc::AnalysisResult& result) {
  ExpectedResponse e;
  e.head = "{\"id\":" + std::to_string(id) +
           ",\"ok\":true,\"fingerprint\":\"" + util::u64_hex16(fingerprint) +
           "\",\"cached\":";
  e.tail = ",\"success\":";
  e.tail += result.success ? "true" : "false";
  e.tail += ",\"probes\":" + std::to_string(result.probes);
  if (result.failed_task) {
    e.tail += ",\"failed_task\":" + std::to_string(*result.failed_task);
  }
  if (result.success) {
    e.tail += ",\"u_sys\":";
    append_exact(e.tail, result.u_sys);
    e.tail += ",\"u_avg\":";
    append_exact(e.tail, result.u_avg);
    e.tail += ",\"imbalance\":";
    append_exact(e.tail, result.imbalance);
    e.tail += ",\"partition\":";
    append_json_string(e.tail, result.partition_text);
  }
  e.tail += ",\"elapsed_us\":";
  return e;
}

std::optional<double> check_response(std::string_view line,
                                     const ExpectedResponse& expected,
                                     bool cached, std::string& why) {
  if (!line.starts_with(expected.head)) {
    why = "response differs from the expected one before \"cached\": " +
          std::string(line.substr(0, 200));
    return std::nullopt;
  }
  line.remove_prefix(expected.head.size());
  const std::string_view flag = cached ? "true" : "false";
  if (!line.starts_with(flag)) {
    why = line.starts_with(cached ? "false" : "true")
              ? "\"cached\" does not match the hit/miss schedule"
              : "malformed \"cached\" flag";
    return std::nullopt;
  }
  line.remove_prefix(flag.size());
  if (!line.starts_with(expected.tail)) {
    why = "response differs from the expected one after \"cached\"";
    return std::nullopt;
  }
  line.remove_prefix(expected.tail.size());
  double elapsed = -1.0;
  const char* end = line.data() + line.size();
  const auto [ptr, ec] =
      std::from_chars(line.data(), end, elapsed);
  if (ec != std::errc{} || ptr + 1 != end || *ptr != '}' || !(elapsed >= 0)) {
    why = "malformed elapsed_us";
    return std::nullopt;
  }
  return elapsed;
}

Report run_serve(const Options& options) {
  Report report;
  // The in-process server writes with plain write(); a peer that went away
  // must not kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
  confine_to_two_cpus();
  const SocketFile socket(options.scratch + "/pb" +
                          std::to_string(::getpid()) + ".sock");

  // The harness's sample buffers and gauges are resident before the
  // baseline, so peak_rss_mb counts what the set-up and the ops add.
  HostGauge gauge;
  std::vector<ConnectionRun> runs;
  runs.reserve(ServeSchedule::kConnections);
  for (std::size_t c = 0; c < ServeSchedule::kConnections; ++c) {
    runs.emplace_back(gen::derive_seed(options.seed, c));
  }
  const double first_reading = gauge.slowdown();
  PeakRss rss;

  ReferenceStopwatch setup_clock(gauge, first_reading);
  const ServeSetup setup =
      set_up(options.seed, socket.path(), setup_clock, report);
  const double setup_s = setup_clock.seconds();
  rss.sample();
  for (std::size_t c = 0; c < runs.size(); ++c) {
    runs[c].connection = setup.connections[c].get();
    runs[c].slowdown = setup_clock.reading();
  }

  // --- Timed windows: every connection runs its closed loop on its own
  // thread.  Traced runs alternate untraced and traced windows.
  const svc::CacheStats cache_before = setup.server->cache_stats();
  const int n_windows = options.trace ? kTracedWindows : 1;
  const int blocks = std::max(
      1, static_cast<int>(options.seconds * 1e9 / n_windows / kGaugeBlockNs));
  for (int window = 0; window < n_windows; ++window) {
    const bool traced = options.trace && window % 2 == 1;
    WindowSync sync(blocks, rss);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < runs.size(); ++c) {
      threads.emplace_back(closed_loop, std::ref(runs[c]), c,
                           std::cref(setup.sets), traced, std::ref(sync));
    }
    for (std::thread& t : threads) t.join();
  }
  const svc::CacheStats cache_after = setup.server->cache_stats();

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const ConnectionRun& run : runs) {
    report.attempted += run.attempted;
    report.failed += run.failed;
    hits += run.hits;
    misses += run.misses;
    if (run.wrong > 0) report.wrong(run.first_error);
    if (!run.first_error.empty()) std::cerr << run.first_error << '\n';
  }
  const std::uint64_t cache_hits = cache_after.hits - cache_before.hits;
  const std::uint64_t cache_misses = cache_after.misses - cache_before.misses;
  if (report.failed == 0 && (cache_hits != hits || cache_misses != misses)) {
    report.wrong("server cache counters disagree with the responses");
  }

  // The median over blocks of both loops' summed rate.  Not all ops over
  // all the time: the gauge divides out a slower host but not a
  // descheduled vCPU, and in runs where the host took the vCPUs away for
  // stretches, total throughput fell by a fifth while p50 and p90 held.
  // The median passes over such blocks unless they are half of the run.
  const auto ops_per_s = [&](int traced) {
    std::vector<double> rates(runs.front().block_rate[traced].size(), 0.0);
    for (const ConnectionRun& run : runs) {
      for (std::size_t b = 0; b < rates.size(); ++b) {
        rates[b] += run.block_rate[traced][b];
      }
    }
    return median(std::move(rates));
  };
  report.slowdown = median(runs.front().readings);
  for (const ConnectionRun& run : runs) {
    report.wall_ops_per_s +=
        static_cast<double>(run.ops[0] + run.ops[1]) /
        (run.wall_seconds[0] + run.wall_seconds[1]);
  }
  if (!options.trace) {
    std::vector<double> latency;
    for (const ConnectionRun& run : runs) {
      latency.insert(latency.end(), run.latency.values().begin(),
                     run.latency.values().end());
    }
    add_end_to_end(report, setup_s, ops_per_s(0), std::move(latency), kTail,
                   rss);
    return report;
  }

  double window_us[2] = {0, 0};
  double outside_us[2] = {0, 0};
  double traced_ops[2] = {0, 0};
  double analyze_us = 0.0;
  std::vector<const Tracer*> tracers;
  for (const ConnectionRun& run : runs) {
    for (int k = 0; k < 2; ++k) {
      window_us[k] += run.window_us[k];
      outside_us[k] += run.outside_us[k];
      traced_ops[k] += static_cast<double>(run.traced[k]);
    }
    analyze_us += run.analyze_us;
    tracers.push_back(&run.tracer);
  }
  const LayerTimes layers = layer_times(tracers);
  std::map<std::string, double> values;
  values["svc.window_hit_us"] = window_us[0] / traced_ops[0];
  values["svc.outside_hit_us"] = outside_us[0] / traced_ops[0];
  values["svc.window_miss_us"] = window_us[1] / traced_ops[1];
  values["svc.outside_miss_us"] = outside_us[1] / traced_ops[1];
  values["analysis.analyze_us"] = analyze_us / traced_ops[1];
  values["io.parse_est_us"] = values["svc.window_miss_us"] -
                              values["svc.window_hit_us"] -
                              values["analysis.analyze_us"];
  values["svc.cache.hit_ratio"] =
      static_cast<double>(cache_hits) /
      static_cast<double>(cache_hits + cache_misses);
  values["op.uncovered_share"] =
      layers.self_ns.at(kOpSpan) / layers.op_total_ns;
  values["trace.overhead_pct"] = (ops_per_s(0) / ops_per_s(1) - 1.0) * 100.0;
  add_layer_metrics(report, values);
  if (!write_spans(options.scratch + "/spans-serve-mix.tsv", tracers)) {
    std::cerr << "perfbench: could not write the span file\n";
  }
  return report;
}

}  // namespace mcs::perfbench
