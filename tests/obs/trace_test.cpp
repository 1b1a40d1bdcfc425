#include "mcs/obs/trace.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "mcs/util/json.hpp"
#include "mcs/util/thread_pool.hpp"

namespace mcs::obs {
namespace {

constexpr TraceSite kSpanSite{"test.span", "a", "b"};
constexpr TraceSite kInnerSite{"test.inner", "i"};
constexpr TraceSite kInstantSite{"test.instant", "idx"};
constexpr TraceSite kCounterSite{"test.counter"};

/// Flattens a snapshot into (site, record) pairs across all threads.
std::vector<TraceRecord> all_records(const TraceSnapshot& snapshot) {
  std::vector<TraceRecord> out;
  for (const ThreadTrace& thread : snapshot.threads) {
    out.insert(out.end(), thread.records.begin(), thread.records.end());
  }
  return out;
}

TEST(ObsTrace, DisabledRecordsNothing) {
  const TraceEnabledGuard off(false);
  reset_trace();
  trace_instant(kInstantSite, 1);
  trace_counter(kCounterSite, 42);
  { const ScopedSpan span(kSpanSite, 1, 2); }
  EXPECT_TRUE(all_records(collect_trace()).empty());
}

TEST(ObsTrace, GuardRestoresPreviousState) {
  const bool before = trace_enabled();
  {
    TraceEnabledGuard outer(true);
    EXPECT_TRUE(trace_enabled());
    {
      TraceEnabledGuard inner(false);
      EXPECT_FALSE(trace_enabled());
    }
    EXPECT_TRUE(trace_enabled());
  }
  EXPECT_EQ(trace_enabled(), before);
}

TEST(ObsTrace, NestedSpansRecordAtScopeExit) {
  const TraceEnabledGuard on(true);
  reset_trace();
  {
    const ScopedSpan outer(kSpanSite, 7, 8);
    { const ScopedSpan inner(kInnerSite, 9); }
  }
  const std::vector<TraceRecord> records = all_records(collect_trace());
  ASSERT_EQ(records.size(), 2u);
  // Exit-time recording: the inner span lands in the ring first.
  EXPECT_EQ(records[0].site, &kInnerSite);
  EXPECT_EQ(records[0].a0, 9u);
  EXPECT_EQ(records[1].site, &kSpanSite);
  EXPECT_EQ(records[1].a0, 7u);
  EXPECT_EQ(records[1].a1, 8u);
  // The outer span starts no later and ends no earlier than the inner.
  EXPECT_LE(records[1].ts_ns, records[0].ts_ns);
  EXPECT_GE(records[1].ts_ns + records[1].dur_ns,
            records[0].ts_ns + records[0].dur_ns);
}

TEST(ObsTrace, RingWrapAroundKeepsLastN) {
  TraceRing ring(0);
  const std::size_t pushed = TraceRing::kCapacity + 100;
  for (std::size_t i = 0; i < pushed; ++i) {
    TraceRecord record;
    record.site = &kInstantSite;
    record.a0 = i;
    ring.push(record);
  }
  EXPECT_EQ(ring.pushed(), pushed);
  std::vector<TraceRecord> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), TraceRing::kCapacity);
  EXPECT_EQ(out.front().a0, 100u);  // oldest surviving record
  EXPECT_EQ(out.back().a0, pushed - 1);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].a0, out[i - 1].a0 + 1);
  }
}

TEST(ObsTrace, PerThreadIsolationUnderThreadPool) {
  const TraceEnabledGuard on(true);
  reset_trace();
  constexpr std::size_t kIters = 2000;
  util::parallel_for(kIters,
                     [](std::size_t i) { trace_instant(kInstantSite, i); });
  const TraceSnapshot snapshot = collect_trace();

  // Every index recorded exactly once, across all rings.
  std::multiset<std::uint64_t> seen;
  for (const ThreadTrace& thread : snapshot.threads) {
    std::uint64_t last_ts = 0;
    for (const TraceRecord& record : thread.records) {
      seen.insert(record.a0);
      // Single-writer rings: timestamps are nondecreasing per ring.
      EXPECT_GE(record.ts_ns, last_ts);
      last_ts = record.ts_ns;
    }
  }
  ASSERT_EQ(seen.size(), kIters);
  for (std::size_t i = 0; i < kIters; ++i) {
    EXPECT_EQ(seen.count(i), 1u) << "index " << i;
  }
}

// Forces the interleaving behind ring reuse: thread B opens a span, then
// thread A records an instant and exits, parking its ring, and only then
// does B close the span.  A span that took its ring only at exit would land
// in A's parked ring, after A's newer instant, and on A's track.
TEST(ObsTrace, SpanKeepsTheRingItOpenedOn) {
  const TraceEnabledGuard on(true);
  reset_trace();
  std::latch span_open(1);
  std::latch other_exited(1);
  std::thread b([&] {
    const ScopedSpan span(kSpanSite, 1, 2);
    span_open.count_down();
    other_exited.wait();
  });
  std::thread a([&] {
    span_open.wait();
    trace_instant(kInstantSite, 3);
  });
  a.join();  // A's thread-exit handler has parked its ring
  other_exited.count_down();
  b.join();

  std::size_t span_track = 0;
  std::size_t instant_track = 0;
  std::size_t found = 0;
  for (const ThreadTrace& thread : collect_trace().threads) {
    std::uint64_t last_ts = 0;
    for (const TraceRecord& record : thread.records) {
      EXPECT_GE(record.ts_ns, last_ts) << "track " << thread.track;
      last_ts = record.ts_ns;
      if (record.site == &kSpanSite) span_track = thread.track;
      if (record.site == &kInstantSite) instant_track = thread.track;
      ++found;
    }
  }
  ASSERT_EQ(found, 2u);
  EXPECT_NE(span_track, instant_track);
}

TEST(ObsTrace, ChromeExportIsWellFormed) {
  const TraceEnabledGuard on(true);
  reset_trace();
  {
    const ScopedSpan span(kSpanSite, 1, 2);
    trace_instant(kInstantSite, 5);
    trace_counter(kCounterSite, 77);
  }
  const util::Json doc = chrome_trace_json(collect_trace());
  // Round-trips through the parser (well-formedness the cheap way).
  const util::Json reparsed = util::Json::parse(doc.dump());
  const util::Json* events = reparsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_EQ(reparsed.at("displayTimeUnit").as_string(), "ns");

  std::map<std::string, std::string> phase_by_name;
  bool saw_thread_meta = false;
  for (const util::Json& event : events->items()) {
    const std::string ph = event.at("ph").as_string();
    EXPECT_EQ(event.at("pid").as_u64(), 1u);
    if (ph == "M") {
      saw_thread_meta = saw_thread_meta ||
                        event.at("name").as_string() == "thread_name";
      continue;
    }
    phase_by_name[event.at("name").as_string()] = ph;
    if (ph == "X") {
      EXPECT_NE(event.find("dur"), nullptr);
    }
    if (ph == "i") {
      EXPECT_EQ(event.at("s").as_string(), "t");
    }
  }
  EXPECT_TRUE(saw_thread_meta);
  EXPECT_EQ(phase_by_name.at("test.span"), "X");
  EXPECT_EQ(phase_by_name.at("test.instant"), "i");
  EXPECT_EQ(phase_by_name.at("test.counter"), "C");

  // The span's integer args survive under their site-declared names.
  for (const util::Json& event : events->items()) {
    if (event.at("ph").as_string() != "X") continue;
    const util::Json& args = event.at("args");
    EXPECT_EQ(args.at("a").as_u64(), 1u);
    EXPECT_EQ(args.at("b").as_u64(), 2u);
  }
}

/// Builds one "X" event with exact microsecond lexemes.
util::Json span_event(const char* name, std::uint64_t tid, const char* ts_us,
                      const char* dur_us) {
  util::Json event = util::Json::object();
  event.set("name", util::Json::string(name));
  event.set("ph", util::Json::string("X"));
  event.set("pid", util::Json::number(std::uint64_t{1}));
  event.set("tid", util::Json::number(tid));
  event.set("ts", util::Json::number_raw(ts_us));
  event.set("dur", util::Json::number_raw(dur_us));
  return event;
}

TEST(ObsTrace, SummarySelfTimeAndPercentiles) {
  // tid 0: outer [0, 10us) containing inner [2us, 6us); tid 1: inner [0, 3us).
  util::Json events = util::Json::array();
  events.push(span_event("outer", 0, "0.000", "10.000"));
  events.push(span_event("inner", 0, "2.000", "4.000"));
  events.push(span_event("inner", 1, "0.000", "3.000"));
  util::Json doc = util::Json::object();
  doc.set("traceEvents", std::move(events));

  const TraceSummary summary = summarize_chrome_trace(doc, "unit-test");
  EXPECT_EQ(summary.source, "unit-test");
  ASSERT_EQ(summary.spans.size(), 2u);
  // Ordered by self time desc: inner (7us) before outer (6us).
  const SpanStats& inner = summary.spans[0];
  const SpanStats& outer = summary.spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.count, 2u);
  EXPECT_EQ(inner.total_ns, 7000u);
  EXPECT_EQ(inner.self_ns, 7000u);
  EXPECT_EQ(inner.p50_self_ns, 3000u);  // rank 1 of {3000, 4000}
  EXPECT_EQ(inner.p99_self_ns, 4000u);  // rank 2
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(outer.total_ns, 10000u);
  EXPECT_EQ(outer.self_ns, 6000u);  // 10us minus the enclosed inner 4us
  EXPECT_EQ(outer.p50_self_ns, 6000u);
  EXPECT_EQ(outer.p99_self_ns, 6000u);

  // Summary artifacts round-trip through the JSON format.
  const TraceSummary reparsed =
      parse_trace_summary(util::Json::parse(trace_summary_json(summary).dump()));
  EXPECT_EQ(reparsed.source, summary.source);
  ASSERT_EQ(reparsed.spans.size(), summary.spans.size());
  for (std::size_t i = 0; i < summary.spans.size(); ++i) {
    EXPECT_EQ(reparsed.spans[i].name, summary.spans[i].name);
    EXPECT_EQ(reparsed.spans[i].count, summary.spans[i].count);
    EXPECT_EQ(reparsed.spans[i].total_ns, summary.spans[i].total_ns);
    EXPECT_EQ(reparsed.spans[i].self_ns, summary.spans[i].self_ns);
    EXPECT_EQ(reparsed.spans[i].p50_self_ns, summary.spans[i].p50_self_ns);
    EXPECT_EQ(reparsed.spans[i].p99_self_ns, summary.spans[i].p99_self_ns);
  }
}

TEST(ObsTrace, SummaryRejectsMalformedInput) {
  EXPECT_THROW((void)summarize_chrome_trace(util::Json::object()),
               std::runtime_error);
  util::Json bad = util::Json::object();
  bad.set("format", util::Json::string("not-a-summary"));
  EXPECT_THROW((void)parse_trace_summary(bad), std::runtime_error);
}

}  // namespace
}  // namespace mcs::obs
