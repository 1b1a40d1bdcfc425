// perfbench: the end-to-end benchmark of the mcs library and daemon.
//
//   perfbench --workload <sweep-paper|sweep-demand|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--scratch <dir>]
//
// Prints a readable summary, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer split with --trace 1.  perfbench/run.py
// builds this binary from source and runs it.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "common.hpp"
#include "serve.hpp"
#include "sweep.hpp"

namespace pb = mcs::perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<sweep-paper|sweep-demand|serve-mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--scratch") {
        options.scratch = value;
      } else {
        return usage("unknown flag " + std::string(flag));
      }
    } catch (const std::exception&) {
      return usage("bad value for " + std::string(flag));
    }
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  pb::Report report;
  try {
    if (options.workload == "sweep-paper") {
      report = pb::run_sweep(pb::sweep_paper(), options);
    } else if (options.workload == "sweep-demand") {
      report = pb::run_sweep(pb::sweep_demand(), options);
    } else if (options.workload == "serve-mix") {
      report = pb::run_serve(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }

  std::cout << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << '\n';
  for (const pb::Metric& m : report.metrics) {
    std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit;
    // Percentiles: which one, the sample count, and how many lie beyond.
    const int p = m.name == "p50_us"    ? 50
                  : m.name == "tail_us" ? report.tail
                                        : 0;
    if (p > 0) {
      std::cout << "  (p" << p << " of " << report.samples << " samples, "
                << report.samples * static_cast<std::size_t>(100 - p) / 100
                << " beyond)";
    }
    std::cout << '\n';
  }
  std::cout << "  host slowdown (median gauge reading) " << report.slowdown
            << "; times above are reference times, each block's wall time "
               "over its reading; in wall time ops_per_s = "
            << report.wall_ops_per_s << '\n';
  std::cout << "  attempted " << report.attempted << ", failed "
            << report.failed << ", correct "
            << (report.correct ? "true" : "false") << '\n';
  std::cout << pb::to_json(report) << std::endl;
  return EXIT_SUCCESS;
}
