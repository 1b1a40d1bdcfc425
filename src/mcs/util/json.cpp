#include "mcs/util/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace mcs::util {

Json Json::null() { return Json{}; }

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(std::uint64_t n) { return number_raw(std::to_string(n)); }

Json Json::number_raw(std::string lexeme) {
  Json j;
  j.type_ = Type::kNumber;
  j.scalar_ = std::move(lexeme);
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.scalar_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json& Json::set(std::string key, Json value) {
  if (type_ != Type::kObject) throw std::runtime_error("json: set on non-object");
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  if (const Json* v = find(key)) return *v;
  throw std::runtime_error("json: missing key '" + key + "'");
}

Json& Json::push(Json value) {
  if (type_ != Type::kArray) throw std::runtime_error("json: push on non-array");
  items_.push_back(std::move(value));
  return items_.back();
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

std::uint64_t Json::as_u64() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), out);
  if (ec != std::errc{} || ptr != scalar_.data() + scalar_.size()) {
    throw std::runtime_error("json: '" + scalar_ + "' is not a u64");
  }
  return out;
}

double Json::as_double() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return std::strtod(scalar_.c_str(), nullptr);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return scalar_;
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string Json::dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull:
      out = "null";
      break;
    case Type::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      out = scalar_;
      break;
    case Type::kString:
      append_json_string(out, scalar_);
      break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += items_[i].dump();
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out.push_back(',');
        append_json_string(out, members_[i].first);
        out.push_back(':');
        out += members_[i].second.dump();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json::string(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Json::boolean(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Json::boolean(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json::null();
    }
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // The writer only emits \u00XX; decode the Latin-1 subset and
          // reject anything that would need real UTF-16 handling.
          if (code > 0xFF) fail("unsupported \\u escape > 0xFF");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    return Json::number_raw(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace mcs::util
