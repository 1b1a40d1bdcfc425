#include "mcs/svc/protocol.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "mcs/io/taskset_io.hpp"
#include "mcs/util/fnv.hpp"

namespace mcs::svc {

namespace {

constexpr const char* kMagic = "mcs-serve/1";

/// Doubles at round-trip precision (17 significant digits), matching the
/// canonical request text so responses are as reproducible as requests.
std::string exact(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

Request::Kind parse_kind(const std::string& verb, std::uint64_t id) {
  if (verb == "analyze") return Request::Kind::kAnalyze;
  if (verb == "ping") return Request::Kind::kPing;
  if (verb == "stats") return Request::Kind::kStats;
  if (verb == "shutdown") return Request::Kind::kShutdown;
  throw ProtocolError("unknown request verb '" + verb + "'", id);
}

const char* verb_of(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kAnalyze:
      return "analyze";
    case Request::Kind::kPing:
      return "ping";
    case Request::Kind::kStats:
      return "stats";
    case Request::Kind::kShutdown:
      return "shutdown";
  }
  return "ping";
}

}  // namespace

std::optional<Request> read_request(std::istream& in) {
  std::string header;
  // Skip blank lines between requests; EOF here is a clean end of stream.
  for (;;) {
    if (!std::getline(in, header)) return std::nullopt;
    if (!header.empty()) break;
  }

  std::istringstream head(header);
  std::string magic, verb;
  std::uint64_t id = 0;
  if (!(head >> magic >> id) || magic != kMagic) {
    throw ProtocolError("bad request header '" + header + "'");
  }
  // From here on the id is known, and every framing error echoes it.
  if (!(head >> verb)) {
    throw ProtocolError("bad request header '" + header + "'", id);
  }

  Request request;
  request.id = id;
  request.kind = parse_kind(verb, id);
  if (request.kind != Request::Kind::kAnalyze) return request;

  WireAnalyze wire;
  std::string cores_token, alpha_token;
  if (!(head >> wire.scheme_spec >> cores_token >> alpha_token)) {
    throw ProtocolError("bad analyze header '" + header + "'", id);
  }
  try {
    wire.num_cores = std::stoul(cores_token);
    wire.alpha = std::stod(alpha_token);
  } catch (const std::exception&) {
    throw ProtocolError("bad analyze header '" + header + "'", id);
  }

  // The body through "end" is the io:: task-set serialization verbatim.
  bool terminated = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line == "end") {
      terminated = true;
      break;
    }
    wire.body += line;
    wire.body += '\n';
  }
  if (!terminated) {
    throw ProtocolError("analyze request missing 'end'", id);
  }

  // The cache key, assembled from the received tokens verbatim — byte-
  // identical to canonical_request_text for requests produced by
  // write_analyze_request (both serialize at round-trip precision).
  wire.canonical = "scheme " + wire.scheme_spec + "\ncores " + cores_token +
                   "\nalpha " + alpha_token + '\n' + wire.body;

  request.analyze = std::move(wire);
  return request;
}

AnalysisRequest parse_analyze(const WireAnalyze& wire) {
  try {
    std::istringstream body_in(wire.body);
    return AnalysisRequest{wire.scheme_spec, wire.num_cores, wire.alpha,
                           io::read_taskset(body_in)};
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("bad task set: ") + e.what());
  }
}

void write_analyze_request(std::ostream& out, std::uint64_t id,
                           const AnalysisRequest& req) {
  out << kMagic << ' ' << id << " analyze " << req.scheme_spec << ' '
      << req.num_cores << ' ' << exact(req.alpha) << '\n';
  io::write_taskset(out, req.taskset);
  out << "end\n";
}

void write_command(std::ostream& out, std::uint64_t id, Request::Kind kind) {
  out << kMagic << ' ' << id << ' ' << verb_of(kind) << '\n';
}

util::Json analysis_response(std::uint64_t id, std::uint64_t fingerprint,
                             bool cached, const AnalysisResult& result) {
  util::Json out = util::Json::object();
  out.set("id", util::Json::number(id));
  out.set("ok", util::Json::boolean(true));
  out.set("fingerprint", util::Json::string(util::u64_hex16(fingerprint)));
  out.set("cached", util::Json::boolean(cached));
  out.set("success", util::Json::boolean(result.success));
  out.set("probes", util::Json::number(result.probes));
  if (result.failed_task) {
    out.set("failed_task", util::Json::number(*result.failed_task));
  }
  if (result.success) {
    out.set("u_sys", util::Json::number_raw(exact(result.u_sys)));
    out.set("u_avg", util::Json::number_raw(exact(result.u_avg)));
    out.set("imbalance", util::Json::number_raw(exact(result.imbalance)));
    out.set("partition", util::Json::string(result.partition_text));
  }
  return out;
}

util::Json pong_response(std::uint64_t id) {
  util::Json out = util::Json::object();
  out.set("id", util::Json::number(id));
  out.set("ok", util::Json::boolean(true));
  out.set("pong", util::Json::boolean(true));
  return out;
}

util::Json stats_response(std::uint64_t id, const CacheStats& stats,
                          std::uint64_t requests_served) {
  util::Json out = util::Json::object();
  out.set("id", util::Json::number(id));
  out.set("ok", util::Json::boolean(true));
  out.set("requests", util::Json::number(requests_served));
  util::Json cache = util::Json::object();
  cache.set("hits", util::Json::number(stats.hits));
  cache.set("misses", util::Json::number(stats.misses));
  cache.set("evictions", util::Json::number(stats.evictions));
  cache.set("collisions", util::Json::number(stats.collisions));
  cache.set("size", util::Json::number(stats.size));
  cache.set("capacity", util::Json::number(stats.capacity));
  out.set("cache", std::move(cache));
  return out;
}

util::Json error_response(std::uint64_t id, const std::string& message) {
  util::Json out = util::Json::object();
  out.set("id", util::Json::number(id));
  out.set("ok", util::Json::boolean(false));
  out.set("error", util::Json::string(message));
  return out;
}

}  // namespace mcs::svc
