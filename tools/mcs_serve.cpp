// mcs_serve: partitioning-as-a-service daemon over a local socket.
//
// Serve mode (foreground; stop with a client "shutdown" or SIGINT):
//
//   $ mcs_serve --socket /tmp/mcs.sock --workers 4 --cache 256
//
// One-shot client mode (partition a task-set file through a running
// daemon; prints the JSON response):
//
//   $ mcs_serve --client --socket /tmp/mcs.sock
//       --file taskset.txt --scheme CA-TPA --cores 8
//
// Selftest / bench mode (boots a private daemon, drives it with the
// closed-loop load generator, validates every response differentially,
// and writes the BENCH_serve.json latency/throughput document):
//
//   $ mcs_serve --selftest --out BENCH_serve.json
#include <fstream>
#include <iostream>

#include "mcs/mcs.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(
      argc, argv,
      {{"socket", "AF_UNIX socket path (default /tmp/mcs_serve.sock)"},
       {"workers", "connection worker threads (default 2)"},
       {"cache", "analysis cache capacity in entries (default 256)"},
       {"client", "one-shot client mode: send one analyze request"},
       {"file", "client: task-set file (io:: text format)"},
       {"scheme", "client: scheme spec (default CA-TPA)"},
       {"cores", "client: core count M (default 8)"},
       {"alpha", "client/selftest: CA-TPA threshold (default 0.7)"},
       {"stats", "client mode: also print the daemon's stats line"},
       {"selftest", "run the closed-loop selftest/bench and exit"},
       {"quick", "selftest: quarter the request count (CI smoke)"},
       {"requests", "selftest: distinct task sets per size (default 32)"},
       {"seed", "selftest: base RNG seed (default 1)"},
       {"out", "selftest: write the bench JSON here"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("mcs_serve");
    return 0;
  }

  const std::string socket_path =
      cli.get_or("socket", std::string("/tmp/mcs_serve.sock"));

  try {
    if (cli.has("selftest")) {
      svc::SelftestOptions options;
      options.workers =
          static_cast<std::size_t>(cli.get_or("workers", std::uint64_t{2}));
      options.requests_per_size = static_cast<std::size_t>(
          cli.get_or("requests", std::uint64_t{32}));
      options.seed = cli.get_or("seed", std::uint64_t{1});
      options.alpha = cli.get_or("alpha", 0.7);
      options.quick = cli.has("quick");
      const svc::SelftestReport report = svc::run_selftest(options);
      print_selftest(std::cout, report);
      if (const auto out_path = cli.get("out")) {
        std::ofstream out(*out_path);
        if (!out) {
          std::cerr << "mcs_serve: cannot write " << *out_path << '\n';
          return 1;
        }
        out << selftest_json(report).dump() << '\n';
        std::cerr << "mcs_serve: wrote " << *out_path << '\n';
      }
      return report.differential_ok ? 0 : 1;
    }

    if (cli.has("client")) {
      const auto file = cli.get("file");
      if (!file) {
        std::cerr << "mcs_serve: --client needs --file <taskset>\n";
        return 1;
      }
      svc::AnalysisRequest request{
          cli.get_or("scheme", std::string("CA-TPA")),
          static_cast<std::size_t>(cli.get_or("cores", std::uint64_t{8})),
          cli.get_or("alpha", 0.7), io::load_taskset(*file)};
      svc::Client client(socket_path);
      std::cout << client.analyze(request).dump() << '\n';
      if (cli.has("stats")) {
        std::cout << client.stats().dump() << '\n';
      }
      return 0;
    }

    svc::ServerConfig config;
    config.socket_path = socket_path;
    config.workers =
        static_cast<std::size_t>(cli.get_or("workers", std::uint64_t{2}));
    config.cache_capacity =
        static_cast<std::size_t>(cli.get_or("cache", std::uint64_t{256}));
    svc::Server server(config);
    std::cerr << "mcs_serve: listening on " << server.socket_path() << " ("
              << config.workers << " worker(s), cache "
              << config.cache_capacity << ")\n";
    server.wait();
    std::cerr << "mcs_serve: shut down after " << server.requests_served()
              << " request(s)\n";
  } catch (const std::exception& e) {
    std::cerr << "mcs_serve: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("mcs_serve", [&] { return run(argc, argv); });
}
