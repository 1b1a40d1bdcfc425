// Minimal JSON value, writer and parser for the experiment artifacts and
// checkpoints.  Deliberately small: objects preserve insertion order (so
// serialization is byte-deterministic), numbers keep their raw lexeme (the
// orchestrator stores exact doubles as hex-bit-pattern *strings*, so the
// parser never has to round-trip floating point), and the parser accepts
// exactly the subset the writer emits plus standard JSON.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcs::util {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;

  [[nodiscard]] static Json null();
  [[nodiscard]] static Json boolean(bool b);
  [[nodiscard]] static Json number(std::uint64_t n);
  [[nodiscard]] static Json number_raw(std::string lexeme);
  [[nodiscard]] static Json string(std::string s);
  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }

  // -- object access -------------------------------------------------------
  /// Adds (or appends; keys are not deduplicated) a member.
  Json& set(std::string key, Json value);
  /// First member with `key`, or nullptr.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Like find() but throws std::runtime_error when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const {
    return members_;
  }

  // -- array access --------------------------------------------------------
  Json& push(Json value);
  [[nodiscard]] const std::vector<Json>& items() const { return items_; }

  // -- scalar access (throw std::runtime_error on type mismatch) -----------
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Compact serialization (no whitespace); deterministic for a given value.
  [[nodiscard]] std::string dump() const;

  /// Parses one JSON document (throws std::runtime_error on malformed or
  /// trailing input).
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::string scalar_;  ///< number lexeme or string payload
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Appends `s` as a quoted JSON string, escaped exactly as Json::dump
/// escapes it; for writers that render JSON without building a tree.
void append_json_string(std::string& out, std::string_view s);

}  // namespace mcs::util
