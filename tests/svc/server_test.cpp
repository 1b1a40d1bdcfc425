// End-to-end daemon tests: a real Server on a private AF_UNIX socket
// driven by the blocking Client (and by a raw socket for malformed input),
// plus a smoke run of the --selftest load generator.
#include "mcs/svc/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "mcs/analysis/placement.hpp"
#include "mcs/exp/paper_params.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/svc/client.hpp"
#include "mcs/svc/protocol.hpp"
#include "mcs/svc/selftest.hpp"
#include "mcs/util/fnv.hpp"

namespace mcs::svc {
namespace {

std::string test_socket(const std::string& name) {
  return "/tmp/mcs_serve_test_" + std::to_string(::getpid()) + "_" + name +
         ".sock";
}

ServerConfig test_config(const std::string& name) {
  ServerConfig config;
  config.socket_path = test_socket(name);
  config.workers = 2;
  config.cache_capacity = 64;
  return config;
}

AnalysisRequest sample_request(std::uint64_t trial) {
  gen::GenParams params = exp::default_gen_params();
  params.num_tasks = 20;
  return AnalysisRequest{"CA-TPA", 8, 0.7, gen::generate_trial(params, 5, trial)};
}

/// Raw connection for feeding the server bytes the Client would never
/// produce.
class RawConnection {
 public:
  explicit RawConnection(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throw std::runtime_error("connect() failed");
    }
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& text) const {
    const char* p = text.data();
    std::size_t left = text.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      ASSERT_GT(n, 0);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  /// Reads up to the next newline ("" once the server closed the stream).
  [[nodiscard]] std::string read_line() {
    std::string line;
    char ch = 0;
    while (::read(fd_, &ch, 1) == 1) {
      if (ch == '\n') break;
      line += ch;
    }
    return line;
  }

 private:
  int fd_ = -1;
};

TEST(ServerTest, PingAndCleanShutdownViaDestructor) {
  const ServerConfig config = test_config("ping");
  {
    Server server(config);
    Client client(server.socket_path());
    const util::Json pong = client.ping();
    EXPECT_TRUE(pong.at("ok").as_bool());
    EXPECT_TRUE(pong.at("pong").as_bool());
    EXPECT_EQ(pong.at("id").as_u64(), 1u);
  }
  // The destructor unlinked the socket: a fresh connect must fail.
  EXPECT_THROW(Client{config.socket_path}, std::runtime_error);
}

TEST(ServerTest, AnalyzeMatchesInProcessAndSecondRequestIsCached) {
  Server server(test_config("analyze"));
  Client client(server.socket_path());

  const AnalysisRequest request = sample_request(0);
  analysis::PlacementEngine reference;
  const AnalysisResult expected = analyze(request, reference);

  const util::Json cold = client.analyze(request);
  ASSERT_TRUE(cold.at("ok").as_bool());
  EXPECT_FALSE(cold.at("cached").as_bool());
  EXPECT_EQ(cold.at("fingerprint").as_string(),
            util::u64_hex16(request_fingerprint(request)));
  EXPECT_EQ(cold.at("success").as_bool(), expected.success);
  EXPECT_EQ(cold.at("probes").as_u64(), expected.probes);
  if (expected.success) {
    // Exact equality: the response serializes at round-trip precision.
    EXPECT_EQ(cold.at("u_sys").as_double(), expected.u_sys);
    EXPECT_EQ(cold.at("u_avg").as_double(), expected.u_avg);
    EXPECT_EQ(cold.at("imbalance").as_double(), expected.imbalance);
    EXPECT_EQ(cold.at("partition").as_string(), expected.partition_text);
  }

  const util::Json warm = client.analyze(request);
  EXPECT_TRUE(warm.at("cached").as_bool());
  EXPECT_EQ(warm.at("fingerprint").as_string(),
            cold.at("fingerprint").as_string());
  EXPECT_EQ(warm.at("probes").as_u64(), cold.at("probes").as_u64());
  if (expected.success) {
    EXPECT_EQ(warm.at("u_sys").as_double(), cold.at("u_sys").as_double());
    EXPECT_EQ(warm.at("partition").as_string(),
              cold.at("partition").as_string());
  }

  const CacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

// A task with a period of 1e-20 once made the GE scan of the core that
// would hold both tasks run forever, and the worker with it.
TEST(ServerTest, AnalyzeWithAPeriodFarBelowTheBoundIsAnswered) {
  Server server(test_config("tiny_period"));
  Client client(server.socket_path());
  const AnalysisRequest request{
      "GE-FFD", 2, 0.7,
      TaskSet({McTask(0, {1e-21}, 1e-20), McTask(1, {10.0, 20.0}, 100.0)},
              2)};
  analysis::PlacementEngine reference;
  const AnalysisResult expected = analyze(request, reference);
  const util::Json reply = client.analyze(request);
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("success").as_bool(), expected.success);
  EXPECT_EQ(reply.at("probes").as_u64(), expected.probes);
}

TEST(ServerTest, StatsVerbMatchesServerCounters) {
  Server server(test_config("stats"));
  Client client(server.socket_path());
  (void)client.analyze(sample_request(1));
  (void)client.analyze(sample_request(1));
  (void)client.analyze(sample_request(2));

  const util::Json stats = client.stats();
  ASSERT_TRUE(stats.at("ok").as_bool());
  // Counted at response-build time: the in-flight stats request itself is
  // not yet included.
  EXPECT_EQ(stats.at("requests").as_u64(), 3u);
  const CacheStats expected = server.cache_stats();
  EXPECT_EQ(stats.at("cache").at("hits").as_u64(), expected.hits);
  EXPECT_EQ(stats.at("cache").at("misses").as_u64(), expected.misses);
  EXPECT_EQ(stats.at("cache").at("size").as_u64(), expected.size);
  EXPECT_EQ(expected.hits, 1u);
  EXPECT_EQ(expected.misses, 2u);
}

TEST(ServerTest, BadBodyGetsErrorResponseAndConnectionSurvives) {
  Server server(test_config("badbody"));
  RawConnection conn(server.socket_path());

  // Well-framed analyze whose body is not a task set: answered with an
  // error, but the stream stays usable.
  conn.send(
      "mcs-serve/1 7 analyze FFD 4 0.7\n"
      "not a task set\n"
      "end\n");
  const util::Json error = util::Json::parse(conn.read_line());
  EXPECT_FALSE(error.at("ok").as_bool());
  EXPECT_EQ(error.at("id").as_u64(), 7u);

  conn.send("mcs-serve/1 8 ping\n");
  const util::Json pong = util::Json::parse(conn.read_line());
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_EQ(pong.at("id").as_u64(), 8u);
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(ServerTest, MalformedFramingClosesConnectionAfterError) {
  Server server(test_config("badframe"));
  RawConnection conn(server.socket_path());

  conn.send("GET / HTTP/1.1\n");
  const util::Json error = util::Json::parse(conn.read_line());
  EXPECT_FALSE(error.at("ok").as_bool());
  // The stream cannot be resynchronized: the server hangs up.
  EXPECT_EQ(conn.read_line(), "");

  // The server itself is unharmed.
  Client client(server.socket_path());
  EXPECT_TRUE(client.ping().at("ok").as_bool());
}

// A framing error after a readable id is answered with that id; only a
// header without one gets id 0.
TEST(ServerTest, FramingErrorEchoesTheRequestId) {
  Server server(test_config("frameid"));
  const std::pair<const char*, std::uint64_t> cases[] = {
      {"mcs-serve/1 42 bogus\n", 42},
      {"mcs-serve/1 43 analyze CA-TPA x 0.7\n", 43},
      {"mcs-serve/1 44\n", 44},
      {"mcs-serve/1 nope ping\n", 0},
  };
  for (const auto& [request, id] : cases) {
    RawConnection conn(server.socket_path());
    conn.send(request);
    const util::Json error = util::Json::parse(conn.read_line());
    EXPECT_FALSE(error.at("ok").as_bool()) << request;
    EXPECT_EQ(error.at("id").as_u64(), id) << request;
    EXPECT_EQ(conn.read_line(), "") << request;
  }
}

// A client that hangs up before its reply is written must not take the
// daemon down.  With one worker, the second client's ping waits behind an
// idle connection; the client sends it and hangs up, then the idle client
// leaves, so the reply goes to a closed socket.
TEST(ServerTest, ClientGoneBeforeItsReplyLeavesTheServerUp) {
  ServerConfig config = test_config("hangup");
  config.workers = 1;
  Server server(config);
  {
    Client idle(server.socket_path());
    ASSERT_TRUE(idle.ping().at("ok").as_bool());  // the worker now owns it
    const RawConnection gone(server.socket_path());
    gone.send("mcs-serve/1 1 ping\n");
  }  // `gone` closes first, then `idle`

  Client client(server.socket_path());
  EXPECT_TRUE(client.ping().at("ok").as_bool());
}

// The client side of the same hazard: a request on a connection the server
// already closed is an error the caller can catch.
TEST(ServerTest, ClientReportsAConnectionTheServerClosed) {
  Server server(test_config("closed"));
  Client client(server.socket_path());
  EXPECT_TRUE(client.shutdown().at("ok").as_bool());
  server.wait();  // the worker has closed the connection
  EXPECT_THROW((void)client.ping(), std::runtime_error);
}

TEST(ServerTest, ShutdownRequestStopsTheServer) {
  const ServerConfig config = test_config("shutdown");
  Server server(config);
  {
    Client client(server.socket_path());
    const util::Json ack = client.shutdown();
    EXPECT_TRUE(ack.at("ok").as_bool());
  }
  server.wait();
  EXPECT_THROW(Client{config.socket_path}, std::runtime_error);
}

TEST(ServerTest, SelftestSmoke) {
  SelftestOptions options;
  options.sizes = {24};
  options.requests_per_size = 6;
  options.workers = 2;
  options.socket_path = test_socket("selftest");
  const SelftestReport report = run_selftest(options);

  EXPECT_TRUE(report.differential_ok) << report.differential_error;
  ASSERT_EQ(report.sizes.size(), 1u);
  EXPECT_EQ(report.sizes[0].tasks, 24u);
  EXPECT_EQ(report.sizes[0].requests, 6u);
  EXPECT_GT(report.sizes[0].speedup, 0.0);
  EXPECT_EQ(report.total_requests, 12u);
  EXPECT_EQ(report.cache.hits, 6u);
  EXPECT_EQ(report.cache.misses, 6u);
  EXPECT_EQ(report.cache.collisions, 0u);

  // BENCH_serve.json schema: what check_bench_regression.py gates on.
  const util::Json bench =
      util::Json::parse(selftest_json(report).dump());
  EXPECT_EQ(bench.at("bench").as_string(), "mcs_serve");
  EXPECT_GT(bench.at("aggregate_speedup").as_double(), 0.0);
  ASSERT_TRUE(bench.at("sizes").is_array());
  ASSERT_EQ(bench.at("sizes").items().size(), 1u);
  const util::Json& size0 = bench.at("sizes").items()[0];
  EXPECT_EQ(size0.at("tasks").as_u64(), 24u);
  EXPECT_GT(size0.at("speedup").as_double(), 0.0);
  EXPECT_GT(size0.at("cold").at("p99_us").as_double(), 0.0);
  EXPECT_GT(size0.at("warm").at("requests_per_sec").as_double(), 0.0);
}

}  // namespace
}  // namespace mcs::svc
