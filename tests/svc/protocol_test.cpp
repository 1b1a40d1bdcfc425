// Wire-protocol framing: request round-trips, malformed-input rejection,
// lazy body validation, the size limit, framing a stream cut at any byte,
// and response JSON shape.
#include "mcs/svc/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "mcs/exp/paper_params.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/io/taskset_io.hpp"

namespace mcs::svc {
namespace {

AnalysisRequest sample_request(std::uint64_t trial = 0) {
  gen::GenParams params = exp::default_gen_params();
  params.num_tasks = 16;
  return AnalysisRequest{"CA-TPA(a=0.5)", 6, 0.55,
                         gen::generate_trial(params, 21, trial)};
}

/// A RequestFramer byte source over a string, handed out in pieces that end
/// at `cuts` (ascending offsets), then the end of the stream.  fed() counts
/// the bytes handed out so far.
class PieceSource {
 public:
  explicit PieceSource(std::string_view bytes,
                       std::vector<std::size_t> cuts = {})
      : bytes_(bytes), cuts_(std::move(cuts)) {}

  std::ptrdiff_t operator()(std::span<char> space) {
    while (next_cut_ < cuts_.size() && cuts_[next_cut_] <= fed_) ++next_cut_;
    const std::size_t piece_end =
        next_cut_ < cuts_.size() ? cuts_[next_cut_] : bytes_.size();
    const std::size_t n = std::min(space.size(), piece_end - fed_);
    std::memcpy(space.data(), bytes_.data() + fed_, n);
    fed_ += n;
    largest_space_ = std::max(largest_space_, space.size());
    return static_cast<std::ptrdiff_t>(n);
  }

  [[nodiscard]] std::size_t fed() const { return fed_; }
  [[nodiscard]] std::size_t largest_space() const { return largest_space_; }

 private:
  std::string_view bytes_;
  std::vector<std::size_t> cuts_;
  std::size_t next_cut_ = 0;
  std::size_t fed_ = 0;
  std::size_t largest_space_ = 0;
};

/// The first request of a stream, framed as a fresh connection would.
std::optional<Request> frame_first(std::string_view stream) {
  RequestFramer framer;
  PieceSource source(stream);
  return framer.next(source);
}

/// An analyze response line for `result` (elapsed_us fixed at 0).
std::string analysis_line(std::uint64_t id, std::uint64_t fingerprint,
                          bool cached, const AnalysisResult& result) {
  std::string line;
  append_analysis_response(line, id, fingerprint, cached,
                           result_fields(result), 0.0);
  return line;
}

TEST(ProtocolTest, AnalyzeRequestRoundTrips) {
  const AnalysisRequest request = sample_request();
  std::ostringstream wire;
  write_analyze_request(wire, 17, request);

  const std::optional<Request> parsed = frame_first(wire.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, Request::Kind::kAnalyze);
  EXPECT_EQ(parsed->id, 17u);
  ASSERT_TRUE(parsed->analyze.has_value());
  EXPECT_EQ(parsed->analyze->scheme_spec, "CA-TPA(a=0.5)");
  EXPECT_EQ(parsed->analyze->num_cores, 6u);
  EXPECT_DOUBLE_EQ(parsed->analyze->alpha, 0.55);

  const AnalysisRequest back = parse_analyze(*parsed->analyze);
  EXPECT_EQ(back.taskset.size(), request.taskset.size());
  // Full reconstruction is exact: re-serializing yields identical bytes
  // (io:: writes doubles at round-trip precision).
  std::ostringstream wire_again;
  write_analyze_request(wire_again, 17, back);
  EXPECT_EQ(wire.str(), wire_again.str());
}

TEST(ProtocolTest, CommandRequestsRoundTrip) {
  for (const Request::Kind kind :
       {Request::Kind::kPing, Request::Kind::kStats, Request::Kind::kShutdown}) {
    std::ostringstream wire;
    write_command(wire, 3, kind);
    const std::optional<Request> parsed = frame_first(wire.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->kind, kind);
    EXPECT_EQ(parsed->id, 3u);
    EXPECT_FALSE(parsed->analyze.has_value());
  }
}

TEST(ProtocolTest, CleanEofReturnsNullopt) {
  EXPECT_FALSE(frame_first("").has_value());
  EXPECT_FALSE(frame_first("\n\n\n").has_value());
}

TEST(ProtocolTest, BlankLinesBetweenRequestsAreSkipped) {
  const std::optional<Request> parsed =
      frame_first("\n\nmcs-serve/1 9 ping\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, Request::Kind::kPing);
}

TEST(ProtocolTest, MalformedFramingThrows) {
  const char* bad[] = {
      "GET / HTTP/1.1\n",                      // wrong magic
      "mcs-serve/1 notanid ping\n",            // non-numeric id
      "mcs-serve/1 1 frobnicate\n",            // unknown verb
      "mcs-serve/1 1 analyze CA-TPA\n",        // missing cores/alpha
      "mcs-serve/1 1 analyze CA-TPA x 0.7\nend\n",  // non-numeric cores
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)frame_first(text), ProtocolError) << text;
  }
}

TEST(ProtocolTest, MissingEndTerminatorThrows) {
  std::ostringstream wire;
  write_analyze_request(wire, 1, sample_request());
  std::string text = wire.str();
  text.resize(text.size() - 4);  // chop the trailing "end\n"
  EXPECT_THROW((void)frame_first(text), ProtocolError);
}

TEST(ProtocolTest, BodyValidationIsLazy) {
  // A framed request with a garbage body reads fine (the fast path never
  // parses it); only parse_analyze rejects it.
  const std::optional<Request> parsed = frame_first(
      "mcs-serve/1 4 analyze FFD 4 0.7\n"
      "this is not a task set\n"
      "end\n");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->analyze.has_value());
  EXPECT_THROW((void)parse_analyze(*parsed->analyze), ProtocolError);
}

TEST(ProtocolTest, BackToBackRequestsShareOneStream) {
  const AnalysisRequest request = sample_request();
  std::ostringstream wire;
  write_analyze_request(wire, 1, request);
  write_command(wire, 2, Request::Kind::kStats);
  write_analyze_request(wire, 3, request);

  const std::string text = wire.str();
  RequestFramer framer;
  PieceSource in(text);
  const std::optional<Request> first = framer.next(in);
  const std::optional<Request> second = framer.next(in);
  const std::optional<Request> third = framer.next(in);
  ASSERT_TRUE(first && second && third);
  EXPECT_EQ(first->kind, Request::Kind::kAnalyze);
  EXPECT_EQ(second->kind, Request::Kind::kStats);
  EXPECT_EQ(third->kind, Request::Kind::kAnalyze);
  EXPECT_EQ(third->id, 3u);
  ASSERT_TRUE(third->analyze.has_value());
  EXPECT_EQ(first->analyze->canonical, third->analyze->canonical);
  EXPECT_FALSE(framer.next(in).has_value());
}

TEST(ProtocolTest, ResponsesAreSingleLineJson) {
  AnalysisResult result;
  result.success = true;
  result.probes = 12;
  result.u_sys = 0.75;
  result.u_avg = 0.7;
  result.imbalance = 0.03;
  result.partition_text = "K 2\ncore 0\n";

  const std::string dumped = analysis_line(8, 0xdeadbeefu, false, result);
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  const util::Json back = util::Json::parse(dumped);
  EXPECT_EQ(back.at("id").as_u64(), 8u);
  EXPECT_TRUE(back.at("ok").as_bool());
  EXPECT_FALSE(back.at("cached").as_bool());
  EXPECT_TRUE(back.at("success").as_bool());
  EXPECT_EQ(back.at("probes").as_u64(), 12u);
  EXPECT_EQ(back.at("fingerprint").as_string(), "00000000deadbeef");
  EXPECT_DOUBLE_EQ(back.at("u_sys").as_double(), 0.75);
  EXPECT_EQ(back.at("partition").as_string(), "K 2\ncore 0\n");

  AnalysisResult failed;
  failed.success = false;
  failed.failed_task = 7;
  failed.probes = 3;
  const util::Json fail_json =
      util::Json::parse(analysis_line(9, 1, false, failed));
  EXPECT_FALSE(fail_json.at("success").as_bool());
  EXPECT_EQ(fail_json.at("failed_task").as_u64(), 7u);
  EXPECT_EQ(fail_json.find("u_sys"), nullptr);

  const util::Json pong = util::Json::parse(pong_response(2).dump());
  EXPECT_TRUE(pong.at("pong").as_bool());

  CacheStats stats;
  stats.hits = 5;
  stats.misses = 2;
  stats.capacity = 16;
  const util::Json st = util::Json::parse(stats_response(3, stats, 7).dump());
  EXPECT_EQ(st.at("requests").as_u64(), 7u);
  EXPECT_EQ(st.at("cache").at("hits").as_u64(), 5u);
  EXPECT_EQ(st.at("cache").at("capacity").as_u64(), 16u);

  const util::Json err = util::Json::parse(error_response(4, "boom").dump());
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").as_string(), "boom");
}

TEST(ProtocolTest, CachedResponseIsByteIdenticalToColdModuloFlag) {
  // The selftest's warm-pass equality check in one spot: the response
  // builder output depends only on (id, fingerprint, result) — serving the
  // stored result reproduces the cold bytes except for the cached flag.
  AnalysisResult result;
  result.success = true;
  result.probes = 4;
  result.u_sys = 1.0 / 3.0;
  result.u_avg = 2.0 / 7.0;
  result.imbalance = 1e-9;
  result.partition_text = "K 1\n";
  const std::string cold = analysis_line(5, 99, false, result);
  const std::string warm = analysis_line(5, 99, true, result);
  std::string warm_flag_flipped = warm;
  const std::size_t at = warm_flag_flipped.find("\"cached\":true");
  ASSERT_NE(at, std::string::npos);
  warm_flag_flipped.replace(at, 13, "\"cached\":false");
  EXPECT_EQ(cold, warm_flag_flipped);
}

// A line ends at its newline or at the end of the stream, so a stream's
// last request may omit its final newline.
TEST(ProtocolTest, LastLineMayEndWithTheStream) {
  const std::optional<Request> ping = frame_first("mcs-serve/1 9 ping");
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->kind, Request::Kind::kPing);

  const std::optional<Request> analyze =
      frame_first("mcs-serve/1 4 analyze FFD 4 0.7\nK 1\ntask 1 10 1\nend");
  ASSERT_TRUE(analyze.has_value());
  EXPECT_EQ(analyze->analyze->body(), "K 1\ntask 1 10 1\n");
}

// The analyze header's cores and alpha are whole tokens: a number followed
// by junk, or a signed core count, is a framing error that echoes the id.
TEST(ProtocolTest, HeaderNumbersMustParseWholeTokens) {
  const std::pair<const char*, std::uint64_t> cases[] = {
      {"mcs-serve/1 5 analyze FFD 4x 0.7\n", 5},
      {"mcs-serve/1 6 analyze FFD 4 0.7zz\n", 6},
      {"mcs-serve/1 7 analyze FFD -1 0.7\n", 7},
  };
  for (const auto& [header, id] : cases) {
    const std::string text =
        std::string(header) + "K 1\ntask 1 10 1\nend\n";
    try {
      (void)frame_first(text);
      ADD_FAILURE() << "framed: " << header;
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.id(), id) << header;
    }
  }
}

/// An analyze request of exactly `bytes` bytes (header through "end\n"):
/// a header, a task set, and one comment line as padding.
std::string request_of_size(std::size_t bytes) {
  const std::string head = "mcs-serve/1 9 analyze FFD 4 0.7\nK 1\n";
  const std::string tail = "task 1 10 1\nend\n";
  const std::size_t padding = bytes - head.size() - tail.size() - 2;
  return head + "#" + std::string(padding, 'x') + "\n" + tail;
}

// kMaxRequestBytes counts a request from its header's first byte through
// its "end" line: a request of exactly the limit frames, one byte more is
// a framing error with the request's id, and the framer never takes more
// bytes than the limit to find out.
TEST(ProtocolTest, RequestsPastTheSizeLimitThrow) {
  const std::string at_limit = "\n\n" + request_of_size(kMaxRequestBytes);
  const std::optional<Request> framed = frame_first(at_limit);
  ASSERT_TRUE(framed.has_value());
  EXPECT_EQ(framed->analyze->body().size(),
            kMaxRequestBytes - std::strlen("mcs-serve/1 9 analyze FFD 4 0.7\n") -
                std::strlen("end\n"));

  const std::string past_limit = request_of_size(kMaxRequestBytes + 1);
  RequestFramer framer;
  PieceSource source(past_limit);
  try {
    (void)framer.next(source);
    ADD_FAILURE() << "an over-limit request framed";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.id(), 9u);
  }
  EXPECT_LE(source.fed(), kMaxRequestBytes);
  EXPECT_LE(source.largest_space(), kMaxRequestBytes);

  // A header line past the limit has no readable id yet.
  try {
    (void)frame_first(std::string(kMaxRequestBytes + 1, 'x'));
    ADD_FAILURE() << "an over-limit header framed";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.id(), 0u);
  }
}

/// Every field a framed request carries, as one string.
std::string describe(const Request& r) {
  std::ostringstream out;
  out.precision(17);
  out << static_cast<int>(r.kind) << ' ' << r.id;
  if (r.analyze) {
    const WireAnalyze& w = *r.analyze;
    out << ' ' << w.scheme_spec << ' ' << w.num_cores << ' ' << w.alpha
        << ' ' << w.body_begin << '\n'
        << w.canonical;
  }
  return out.str();
}

/// Frames all of `stream`, handed over in pieces ending at `cuts`, and
/// checks that no request is yielded before the bytes through its last
/// line (`request_ends`) were handed over.
std::vector<std::string> frame_in_pieces(
    const std::string& stream, std::vector<std::size_t> cuts,
    const std::vector<std::size_t>& request_ends) {
  RequestFramer framer;
  PieceSource source(stream, std::move(cuts));
  std::vector<std::string> out;
  while (std::optional<Request> request = framer.next(source)) {
    if (out.size() < request_ends.size()) {
      EXPECT_GE(source.fed(), request_ends[out.size()])
          << "request " << out.size() << " yielded before its last line";
    }
    out.push_back(describe(*request));
  }
  return out;
}

// Framing does not depend on how the stream is cut.  Each stream holds two
// analyze requests of a random set (K in {2, 4}, a `#` comment line and a
// blank line in the body) with a command between them and blank lines
// around them.  Some streams are cut at every byte offset, the rest at
// random offsets; every cut must frame the same fields and canonical text
// as the whole stream, and no request may be yielded before its last line
// is complete.
TEST(ProtocolTest, FramingIsIndependentOfWhereTheStreamIsCut) {
  constexpr std::uint64_t kSets = 200;
  constexpr std::uint64_t kEveryOffsetSets = 12;
  std::mt19937_64 rng(2024);
  for (std::uint64_t set = 0; set < kSets; ++set) {
    gen::GenParams params = exp::default_gen_params();
    params.num_levels = set % 2 == 0 ? 2 : 4;
    params.num_tasks = set < kEveryOffsetSets ? 3 + set % 4 : 4 + rng() % 40;
    const AnalysisRequest request{set % 3 == 0 ? "FFD" : "CA-TPA",
                                  2 + set % 7, 0.7,
                                  gen::generate_trial(params, 99, set)};
    // A comment and a blank line after the "K" line of `text`.
    const auto annotate = [](std::string text) {
      const std::size_t k_line = text.find("\nK ") + 1;
      return text.insert(text.find('\n', k_line) + 1, "# any comment\n\n");
    };
    const std::string canonical = annotate(canonical_request_text(request));

    const std::uint64_t id = 10 * set;
    std::ostringstream first;
    write_analyze_request(first, id, request);
    std::ostringstream command;
    write_command(command, id + 1, Request::Kind::kStats);
    std::ostringstream second;
    write_analyze_request(second, id + 2, request);

    std::string stream = "\n\n" + annotate(first.str());
    std::vector<std::size_t> ends{stream.size()};
    stream += "\n" + command.str();
    ends.push_back(stream.size());
    stream += "\n\n" + annotate(second.str());
    ends.push_back(stream.size());
    stream += "\n";

    // What the stream frames to.
    const auto analyze = [&](std::uint64_t request_id) {
      Request r{Request::Kind::kAnalyze, request_id, {}};
      r.analyze = WireAnalyze{request.scheme_spec, request.num_cores,
                              request.alpha, canonical,
                              canonical.find("# mcs task set")};
      return describe(r);
    };
    const std::vector<std::string> want{
        analyze(id), describe({Request::Kind::kStats, id + 1, {}}),
        analyze(id + 2)};

    const std::string at = "set " + std::to_string(set);
    EXPECT_EQ(frame_in_pieces(stream, {}, ends), want) << at << " whole";
    if (set < kEveryOffsetSets) {
      for (std::size_t cut = 1; cut < stream.size(); ++cut) {
        EXPECT_EQ(frame_in_pieces(stream, {cut}, ends), want)
            << at << " cut at " << cut;
      }
      std::vector<std::size_t> every_byte(stream.size());
      for (std::size_t i = 0; i < every_byte.size(); ++i) every_byte[i] = i + 1;
      EXPECT_EQ(frame_in_pieces(stream, every_byte, ends), want)
          << at << " byte by byte";
    } else {
      std::vector<std::size_t> cuts(1 + rng() % 12);
      for (std::size_t& cut : cuts) cut = 1 + rng() % (stream.size() - 1);
      std::sort(cuts.begin(), cuts.end());
      EXPECT_EQ(frame_in_pieces(stream, cuts, ends), want)
          << at << " random cuts";
    }
  }
}

}  // namespace
}  // namespace mcs::svc
