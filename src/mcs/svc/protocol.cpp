#include "mcs/svc/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <ostream>
#include <sstream>
#include <system_error>
#include <utility>

#include "mcs/io/taskset_io.hpp"
#include "mcs/util/fnv.hpp"

namespace mcs::svc {

namespace {

constexpr const char* kMagic = "mcs-serve/1";

/// Appends v as printf's %.<precision>g would print it.
void append_general(std::string& out, double v, int precision) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general, precision);
  out.append(buf, ec == std::errc{} ? end : buf);
}

/// Doubles at round-trip precision (17 significant digits), matching the
/// canonical request text so responses are as reproducible as requests.
std::string exact(double v) {
  std::string out;
  append_general(out, v, 17);
  return out;
}

Request::Kind parse_kind(std::string_view verb, std::uint64_t id) {
  if (verb == "analyze") return Request::Kind::kAnalyze;
  if (verb == "ping") return Request::Kind::kPing;
  if (verb == "stats") return Request::Kind::kStats;
  if (verb == "shutdown") return Request::Kind::kShutdown;
  throw ProtocolError("unknown request verb '" + std::string(verb) + "'", id);
}

/// The framer's starting buffer; it grows up to kMaxRequestBytes.
constexpr std::size_t kInitialBufferBytes = std::size_t{64} << 10;

ProtocolError over_limit(std::uint64_t id) {
  return ProtocolError(
      "request exceeds " + std::to_string(kMaxRequestBytes) + " bytes", id);
}

/// Splits off the next whitespace-separated token (the separators
/// std::istream's >> skips).  Empty when `rest` holds none.
std::string_view next_token(std::string_view& rest) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  const std::size_t begin = rest.find_first_not_of(kSpace);
  if (begin == std::string_view::npos) {
    rest = {};
    return {};
  }
  rest.remove_prefix(begin);
  const std::size_t end = std::min(rest.find_first_of(kSpace), rest.size());
  const std::string_view token = rest.substr(0, end);
  rest.remove_prefix(end);
  return token;
}

/// Parses all of `token` as a number; an empty token, a sign on an
/// unsigned type or any trailing character fails.
template <class T>
bool parse_whole(std::string_view token, T& value) {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return !token.empty() && ec == std::errc{} && ptr == end;
}

/// Frames a header line (without its newline).  An analyze request comes
/// back with its header fields and the start of its canonical text.
Request parse_header(std::string_view header) {
  const auto bad = [&](const char* what, std::uint64_t id) {
    return ProtocolError(std::string(what) + " '" + std::string(header) + "'",
                         id);
  };
  std::string_view rest = header;
  Request request;
  if (next_token(rest) != kMagic ||
      !parse_whole(next_token(rest), request.id)) {
    throw bad("bad request header", 0);
  }
  // From here on the id is known, and every framing error echoes it.
  const std::string_view verb = next_token(rest);
  if (verb.empty()) throw bad("bad request header", request.id);
  request.kind = parse_kind(verb, request.id);
  if (request.kind != Request::Kind::kAnalyze) return request;

  WireAnalyze& wire = request.analyze.emplace();
  const std::string_view scheme = next_token(rest);
  const std::string_view cores = next_token(rest);
  const std::string_view alpha = next_token(rest);
  if (scheme.empty() || !parse_whole(cores, wire.num_cores) ||
      !parse_whole(alpha, wire.alpha)) {
    throw bad("bad analyze header", request.id);
  }
  wire.scheme_spec = scheme;
  // The cache key, assembled from the received tokens verbatim — byte-
  // identical to canonical_request_text for requests produced by
  // write_analyze_request (both serialize at round-trip precision).  The
  // framer appends the body.
  wire.canonical.append("scheme ").append(scheme);
  wire.canonical.append("\ncores ").append(cores);
  wire.canonical.append("\nalpha ").append(alpha).push_back('\n');
  wire.body_begin = wire.canonical.size();
  return request;
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

std::optional<Request> RequestFramer::frame() {
  const char* const data = buffer_.data();
  while (!pending_) {
    // Between requests: skip blank lines, then frame a header.
    if (begin_ == end_) return std::nullopt;
    const char* const line = data + begin_;
    const auto* const eol =
        static_cast<const char*>(std::memchr(line, '\n', end_ - begin_));
    if (eol == nullptr) {
      if (end_ - begin_ >= kMaxRequestBytes) throw over_limit(0);
      return std::nullopt;
    }
    const std::string_view header(line, static_cast<std::size_t>(eol - line));
    const std::size_t line_bytes = header.size() + 1;
    if (header.empty()) {
      begin_ += line_bytes;
      continue;
    }
    Request request = parse_header(header);
    if (request.kind != Request::Kind::kAnalyze) {
      begin_ += line_bytes;
      return request;
    }
    pending_ = std::move(request);
    body_ = scan_ = line_bytes;
  }

  // Inside an analyze body: examine each complete line once, up to "end".
  const std::uint64_t id = pending_->id;
  const char* const request_begin = data + begin_;
  const std::size_t buffered = end_ - begin_;
  while (const auto* const eol = static_cast<const char*>(
             std::memchr(request_begin + scan_, '\n', buffered - scan_))) {
    const std::size_t line = scan_;
    scan_ = static_cast<std::size_t>(eol - request_begin) + 1;
    if (scan_ > kMaxRequestBytes) throw over_limit(id);
    if (std::string_view(request_begin + line, scan_ - 1 - line) == "end") {
      WireAnalyze& wire = *pending_->analyze;
      wire.canonical.append(request_begin + body_, line - body_);
      begin_ += scan_;
      Request request = std::move(*pending_);
      pending_.reset();
      return request;
    }
  }
  if (buffered >= kMaxRequestBytes) throw over_limit(id);
  return std::nullopt;
}

std::span<char> RequestFramer::reserve() {
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == buffer_.size()) {
    buffer_.resize(std::min(kMaxRequestBytes,
                            std::max(kInitialBufferBytes, 2 * buffer_.size())));
  }
  return {buffer_.data() + end_, buffer_.size() - end_};
}

void RequestFramer::end_stream() {
  ended_ = true;
  // reserve() left room for this byte: the read that ended took none.
  if (end_ > begin_ && buffer_[end_ - 1] != '\n') buffer_[end_++] = '\n';
}

void RequestFramer::expect_clean_end() const {
  if (pending_) {
    throw ProtocolError("analyze request missing 'end'", pending_->id);
  }
}

AnalysisRequest parse_analyze(const WireAnalyze& wire) {
  try {
    std::istringstream body_in{std::string(wire.body())};
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

std::string result_fields(const AnalysisResult& result) {
  std::string out = ",\"success\":";
  out += result.success ? "true" : "false";
  out += ",\"probes\":" + std::to_string(result.probes);
  if (result.failed_task) {
    out += ",\"failed_task\":" + std::to_string(*result.failed_task);
  }
  if (result.success) {
    out += ",\"u_sys\":" + exact(result.u_sys);
    out += ",\"u_avg\":" + exact(result.u_avg);
    out += ",\"imbalance\":" + exact(result.imbalance);
    out += ",\"partition\":";
    util::append_json_string(out, result.partition_text);
  }
  return out;
}

void append_analysis_response(std::string& out, std::uint64_t id,
                              std::uint64_t fingerprint, bool cached,
                              std::string_view fields, double elapsed_us) {
  out += "{\"id\":";
  out += std::to_string(id);
  out += ",\"ok\":true,\"fingerprint\":\"";
  out += util::u64_hex16(fingerprint);
  out += cached ? "\",\"cached\":true" : "\",\"cached\":false";
  out += fields;
  out += ",\"elapsed_us\":";
  append_general(out, elapsed_us, 6);
  out += '}';
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
