// Tiny command-line option parser shared by the bench/example binaries.
//
// Supports `--key value` and `--key=value` forms plus boolean `--flag`.
// Unknown options raise an error listing the accepted keys, so every bench
// gets consistent, self-describing CLI handling for free; a main run
// through run_main reports that error and exits 1.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::util {

class Cli {
 public:
  /// Parses argv.  `allowed` lists option names (without the leading "--")
  /// mapped to a one-line help string.  Throws std::invalid_argument on an
  /// unknown or malformed option; `--help` sets help_requested().
  Cli(int argc, const char* const* argv,
      std::map<std::string, std::string> allowed);

  [[nodiscard]] bool help_requested() const noexcept { return help_; }

  /// Renders usage text from the allowed-option table.
  [[nodiscard]] std::string usage(const std::string& program) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;
  [[nodiscard]] double get_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::uint64_t get_or(const std::string& key,
                                     std::uint64_t fallback) const;
  [[nodiscard]] bool has(const std::string& key) const;

 private:
  std::map<std::string, std::string> allowed_;
  std::map<std::string, std::string> values_;
  bool help_ = false;
};

/// Runs a program's main body.  An exception that escapes it, such as an
/// unknown or malformed option, is reported as `<program>: <reason>` on
/// stderr with exit status 1 instead of terminating the process.
int run_main(std::string_view program, const std::function<int()>& body);

}  // namespace mcs::util
