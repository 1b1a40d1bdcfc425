#include "mcs/exp/checkpoint.hpp"

#include <bit>
#include <stdexcept>

namespace mcs::exp {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string hex_double(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  std::string out(17, 'x');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i + 1)] = kHexDigits[(bits >> (60 - 4 * i)) & 0xF];
  }
  return out;
}

double unhex_double(const std::string& text) {
  if (text.size() != 17 || text[0] != 'x') {
    throw std::runtime_error("unhex_double: bad encoding '" + text + "'");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 1; i < 17; ++i) {
    const int digit = hex_value(text[i]);
    if (digit < 0) {
      throw std::runtime_error("unhex_double: bad encoding '" + text + "'");
    }
    bits = (bits << 4) | static_cast<std::uint64_t>(digit);
  }
  return std::bit_cast<double>(bits);
}

util::Json welford_to_json(const util::Welford& w) {
  util::Json out = util::Json::object();
  out.set("n", util::Json::number(w.count()));
  out.set("mean", util::Json::string(hex_double(w.mean())));
  out.set("m2", util::Json::string(hex_double(w.m2())));
  out.set("min", util::Json::string(hex_double(w.raw_min())));
  out.set("max", util::Json::string(hex_double(w.raw_max())));
  return out;
}

util::Welford welford_from_json(const util::Json& json) {
  return util::Welford::restore(
      static_cast<std::size_t>(json.at("n").as_u64()),
      unhex_double(json.at("mean").as_string()),
      unhex_double(json.at("m2").as_string()),
      unhex_double(json.at("min").as_string()),
      unhex_double(json.at("max").as_string()));
}

util::Json point_to_json(const PointCheckpoint& point) {
  util::Json out = util::Json::object();
  out.set("kind", util::Json::string("point"));
  out.set("index", util::Json::number(point.index));
  out.set("x", util::Json::string(hex_double(point.result.x)));
  util::Json schemes = util::Json::array();
  for (const SchemeAggregate& agg : point.result.schemes) {
    util::Json s = util::Json::object();
    s.set("scheme", util::Json::string(agg.scheme));
    s.set("trials", util::Json::number(agg.trials));
    s.set("schedulable", util::Json::number(agg.schedulable));
    s.set("u_sys", welford_to_json(agg.u_sys));
    s.set("u_avg", welford_to_json(agg.u_avg));
    s.set("imbalance", welford_to_json(agg.imbalance));
    s.set("probes", welford_to_json(agg.probes));
    schemes.push(std::move(s));
  }
  out.set("schemes", std::move(schemes));
  util::Json counters = util::Json::object();
  for (const auto& [name, value] : point.counters) {
    counters.set(name, util::Json::number(value));
  }
  out.set("counters", std::move(counters));
  return out;
}

PointCheckpoint point_from_json(const util::Json& json) {
  PointCheckpoint point;
  point.index = static_cast<std::size_t>(json.at("index").as_u64());
  point.result.x = unhex_double(json.at("x").as_string());
  for (const util::Json& s : json.at("schemes").items()) {
    SchemeAggregate agg;
    agg.scheme = s.at("scheme").as_string();
    agg.trials = s.at("trials").as_u64();
    agg.schedulable = s.at("schedulable").as_u64();
    agg.u_sys = welford_from_json(s.at("u_sys"));
    agg.u_avg = welford_from_json(s.at("u_avg"));
    agg.imbalance = welford_from_json(s.at("imbalance"));
    agg.probes = welford_from_json(s.at("probes"));
    point.result.schemes.push_back(std::move(agg));
  }
  for (const auto& [name, value] : json.at("counters").members()) {
    point.counters[name] = value.as_u64();
  }
  return point;
}

std::optional<CheckpointData> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;

  // A line counts only with its newline: a completed append always ends in
  // one, so a line cut short at end of file is a torn write.
  std::string line;
  if (!std::getline(in, line) || in.eof()) return std::nullopt;

  CheckpointData data;
  try {
    const util::Json header = util::Json::parse(line);
    if (header.at("kind").as_string() != "header" ||
        header.at("format").as_string() != "mcs-exp-checkpoint/1") {
      return std::nullopt;
    }
    data.spec = header.at("spec").as_string();
    data.fingerprint = header.at("fingerprint").as_string();
    data.total_points = static_cast<std::size_t>(header.at("points").as_u64());
  } catch (const std::exception&) {
    return std::nullopt;
  }
  data.records_end = static_cast<std::uintmax_t>(in.tellg());

  while (std::getline(in, line) && !in.eof()) {
    if (line.empty()) continue;
    try {
      const util::Json record = util::Json::parse(line);
      if (record.at("kind").as_string() != "point") break;
      data.points.push_back(point_from_json(record));
      data.records_end = static_cast<std::uintmax_t>(in.tellg());
    } catch (const std::exception&) {
      // A truncated trailing line means the previous run died mid-write;
      // the point it described simply reruns.
      break;
    }
  }
  return data;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const std::string& spec,
                                   const std::string& fingerprint,
                                   std::size_t total_points, bool resume)
    : path_(path) {
  out_.open(path, resume ? (std::ios::out | std::ios::app) : std::ios::out);
  if (!out_) {
    throw std::runtime_error("CheckpointWriter: cannot open '" + path + "'");
  }
  if (!resume) {
    util::Json header = util::Json::object();
    header.set("kind", util::Json::string("header"));
    header.set("format", util::Json::string("mcs-exp-checkpoint/1"));
    header.set("spec", util::Json::string(spec));
    header.set("fingerprint", util::Json::string(fingerprint));
    header.set("points", util::Json::number(total_points));
    out_ << header.dump() << '\n';
    out_.flush();
    check_written();
  }
}

void CheckpointWriter::append(const PointCheckpoint& point) {
  out_ << point_to_json(point).dump() << '\n';
  out_.flush();
  check_written();
}

void CheckpointWriter::check_written() const {
  if (!out_) {
    throw std::runtime_error("cannot write checkpoint '" + path_ + "'");
  }
}

}  // namespace mcs::exp
