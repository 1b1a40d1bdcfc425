// Docs renderer: regenerates the experiment tables in the markdown docs
// from the committed artifacts (written by tools/mcs_exp).
//
//   $ mcs_report                       # rewrite EXPERIMENTS.md in place
//   $ mcs_report --check               # exit 1 if the docs drifted
//   $ mcs_report --doc OTHER.md --artifacts artifacts
//
// The renderer owns the region between
//   <!-- mcs_report:begin <spec>[:<metric>] -->  and
//   <!-- mcs_report:end <spec>[:<metric>] -->
// markers: each block becomes a provenance comment plus the table for the
// requested metric (ratio by default; u_sys, u_avg, imbalance, counters).
// `mcs_exp --figure all && mcs_report` regenerates the docs end-to-end.
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>

#include "mcs/mcs.hpp"

namespace {

/// Splits "spec[:metric]".
std::pair<std::string, std::string> split_block_name(const std::string& name) {
  const std::size_t colon = name.find(':');
  if (colon == std::string::npos) return {name, "ratio"};
  return {name.substr(0, colon), name.substr(colon + 1)};
}

int run(int argc, char** argv) {
  using namespace mcs;
  const util::Cli cli(
      argc, argv,
      {{"artifacts", "artifacts directory (default: artifacts)"},
       {"doc", "markdown file to render (default: EXPERIMENTS.md)"},
       {"check", "verify the doc matches the artifacts; write nothing"},
       {"list-schemes",
        "print every enumerable scheme spec of the partition grammar "
        "(one per line) and exit"}});
  if (cli.help_requested()) {
    std::cout << cli.usage("mcs_report");
    return 0;
  }
  if (cli.has("list-schemes")) {
    // The docs-coverage CI check (tools/check_scheme_docs.sh) diffs this
    // list against the ALGORITHMS.md section headings.
    for (const std::string& spec : partition::registered_scheme_specs()) {
      std::cout << spec << '\n';
    }
    return 0;
  }
  const std::string artifacts_dir =
      cli.get_or("artifacts", std::string("artifacts"));
  const std::string doc_path = cli.get_or("doc", std::string("EXPERIMENTS.md"));

  std::string doc;
  {
    std::ifstream in(doc_path);
    if (!in) {
      std::cerr << "mcs_report: cannot read " << doc_path << '\n';
      return 2;
    }
    doc.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }

  try {
    const std::vector<std::string> blocks = exp::doc_block_names(doc);
    if (blocks.empty()) {
      std::cerr << "mcs_report: no mcs_report marker blocks in " << doc_path
                << '\n';
      return 2;
    }

    // Load every referenced artifact (and trace summary) once.  Blocks
    // named "trace:<name>" render from <artifacts>/<name>.trace_summary.json
    // instead of a sweep artifact; blocks named "serve:<stem>" render from
    // <stem>.json next to the doc (the committed BENCH_serve.json).
    std::map<std::string, exp::Artifact> artifacts;
    std::map<std::string, obs::TraceSummary> summaries;
    std::map<std::string, std::string> summary_files;
    std::map<std::string, util::Json> serve_benches;
    for (const std::string& block : blocks) {
      const auto [spec, metric] = split_block_name(block);
      if (spec == "serve") {
        if (serve_benches.count(metric) != 0) continue;
        const std::string path = metric + ".json";
        std::ifstream in(path);
        if (!in) {
          std::cerr << "mcs_report: block '" << block
                    << "' needs missing bench file " << path
                    << " (run mcs_serve --selftest --out " << path << ")\n";
          return 2;
        }
        const std::string text{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
        serve_benches.emplace(metric, util::Json::parse(text));
        continue;
      }
      if (spec == "trace") {
        if (summaries.count(metric) != 0) continue;
        const std::string file = metric + ".trace_summary.json";
        const std::string path = artifacts_dir + "/" + file;
        std::ifstream in(path);
        if (!in) {
          std::cerr << "mcs_report: block '" << block
                    << "' needs missing trace summary " << path
                    << " (run mcs_trace --summary-json)\n";
          return 2;
        }
        const std::string text{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
        summaries.emplace(metric,
                          obs::parse_trace_summary(util::Json::parse(text)));
        summary_files.emplace(metric, file);
        continue;
      }
      if (artifacts.count(spec) != 0) continue;
      const std::string path = artifacts_dir + "/" + spec + ".json";
      std::optional<exp::Artifact> artifact = exp::load_artifact(path);
      if (!artifact) {
        std::cerr << "mcs_report: block '" << block
                  << "' needs missing/invalid artifact " << path
                  << " (run mcs_exp --figure " << spec << ")\n";
        return 2;
      }
      artifacts.emplace(spec, std::move(*artifact));
    }

    const std::string rendered =
        exp::replace_blocks(doc, [&](const std::string& block) {
          const auto [spec, metric] = split_block_name(block);
          if (spec == "serve") {
            return exp::render_serve_block(serve_benches.at(metric),
                                           metric + ".json");
          }
          if (spec == "trace") {
            return exp::render_trace_block(summaries.at(metric),
                                           summary_files.at(metric));
          }
          return exp::render_block(artifacts.at(spec), metric);
        });

    if (cli.has("check")) {
      if (rendered != doc) {
        std::cerr << "mcs_report: " << doc_path
                  << " is out of date with " << artifacts_dir
                  << " — run mcs_report to regenerate\n";
        return 1;
      }
      std::cout << doc_path << ": " << blocks.size()
                << " block(s) up to date\n";
      return 0;
    }

    if (rendered == doc) {
      std::cout << doc_path << ": " << blocks.size()
                << " block(s) already up to date\n";
      return 0;
    }
    std::ofstream out(doc_path, std::ios::binary);
    out << rendered;
    std::cout << doc_path << ": rendered " << blocks.size() << " block(s)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mcs_report: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  return mcs::util::run_main("mcs_report", [&] { return run(argc, argv); });
}
