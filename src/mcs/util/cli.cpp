#include "mcs/util/cli.hpp"

#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace mcs::util {

// GCC 12's -Wrestrict false-positives on the `value = "1"` assignment below
// under -O2/-O3 (inlined basic_string::assign; GCC PR105329 family): it
// invents impossible overlap between the SSO buffer and the literal.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

Cli::Cli(int argc, const char* const* argv,
         std::map<std::string, std::string> allowed)
    : allowed_(std::move(allowed)) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument '" + arg +
                                  "'");
    }
    arg.erase(0, 2);
    std::string key = arg;
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    if (!allowed_.contains(key)) {
      std::ostringstream os;
      os << "unknown option '--" << key << "'; accepted:";
      for (const auto& [name, _] : allowed_) os << " --" << name;
      throw std::invalid_argument(os.str());
    }
    if (!has_value) {
      // `--key value` form when the next token is not another option;
      // otherwise a boolean flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "1";
      }
    }
    values_[key] = value;
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::string Cli::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n";
  for (const auto& [name, help] : allowed_) {
    os << "  --" << name << "  " << help << '\n';
  }
  return os.str();
}

std::optional<std::string> Cli::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& key,
                        const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double Cli::get_or(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" +
                                *v + "'");
  }
}

std::uint64_t Cli::get_or(const std::string& key, std::uint64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    return std::stoull(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key +
                                " expects an integer, got '" + *v + "'");
  }
}

bool Cli::has(const std::string& key) const { return values_.contains(key); }

int run_main(std::string_view program, const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << program << ": " << e.what() << '\n';
    return 1;
  }
}

}  // namespace mcs::util
