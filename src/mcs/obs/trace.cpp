#include "mcs/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace mcs::obs {

namespace {

/// Owns every ring ever created plus a free list of rings whose threads
/// exited.  Leaked on purpose: detached/late threads may touch their
/// thread-local ring handle after main() begins teardown.
struct RingRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<TraceRing>> rings;
  std::vector<TraceRing*> free_list;

  static RingRegistry& instance() {
    static RingRegistry* registry = new RingRegistry;
    return *registry;
  }

  TraceRing* acquire() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!free_list.empty()) {
      TraceRing* ring = free_list.back();
      free_list.pop_back();
      return ring;
    }
    rings.push_back(std::make_unique<TraceRing>(rings.size()));
    return rings.back().get();
  }

  void release(TraceRing* ring) {
    const std::lock_guard<std::mutex> lock(mutex);
    free_list.push_back(ring);
  }
};

/// Thread-local handle; the destructor parks the ring for reuse so the
/// fresh threads spawned by each util::parallel_for call do not grow the
/// registry without bound.
struct LocalRingHandle {
  TraceRing* ring = nullptr;
  ~LocalRingHandle() {
    if (ring != nullptr) RingRegistry::instance().release(ring);
  }
};

thread_local LocalRingHandle t_local_ring;

/// Exact microsecond lexeme for a nanosecond count (ns = 1234567 → the
/// JSON number 1234.567), keeping Chrome's µs unit without rounding.
util::Json microseconds_lexeme(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return util::Json::number_raw(buf);
}

void set_args(util::Json& event, const TraceRecord& record) {
  const TraceSite& site = *record.site;
  if (site.arg0 == nullptr && site.arg1 == nullptr && site.arg2 == nullptr) {
    return;
  }
  util::Json args = util::Json::object();
  if (site.arg0 != nullptr) args.set(site.arg0, util::Json::number(record.a0));
  if (site.arg1 != nullptr) args.set(site.arg1, util::Json::number(record.a1));
  if (site.arg2 != nullptr) args.set(site.arg2, util::Json::number(record.a2));
  event.set("args", std::move(args));
}

/// Nanoseconds from a Chrome `ts`/`dur` field (microseconds, possibly
/// fractional).
std::uint64_t field_ns(const util::Json& event, const std::string& key) {
  const util::Json* field = event.find(key);
  if (field == nullptr) return 0;
  const double us = field->as_double();
  if (us < 0.0) throw std::runtime_error("trace: negative " + key);
  return static_cast<std::uint64_t>(std::llround(us * 1000.0));
}

/// Exact rank-based percentile of a sorted sample (q in [0, 1]).
std::uint64_t percentile_sorted(const std::vector<std::uint64_t>& sorted,
                                double q) {
  if (sorted.empty()) return 0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

}  // namespace

void TraceRing::snapshot(std::vector<TraceRecord>& out) const {
  const std::uint64_t n = head_.load(std::memory_order_acquire);
  const std::uint64_t count = std::min<std::uint64_t>(n, kCapacity);
  out.clear();
  out.reserve(count);
  for (std::uint64_t i = n - count; i < n; ++i) {
    out.push_back(records_[i & (kCapacity - 1)]);
  }
}

TraceRing& local_trace_ring() {
  if (t_local_ring.ring == nullptr) {
    t_local_ring.ring = RingRegistry::instance().acquire();
  }
  return *t_local_ring.ring;
}

std::uint64_t trace_now_ns() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace trace_detail {
void emit(TraceKind kind, const TraceSite& site, std::uint64_t value,
          std::uint64_t a0, std::uint64_t a1, std::uint64_t a2) noexcept {
  TraceRing& ring = local_trace_ring();
  ring.push(TraceRecord{&site, kind, trace_now_ns(), value, a0, a1, a2});
}
}  // namespace trace_detail

TraceSnapshot collect_trace() {
  RingRegistry& registry = RingRegistry::instance();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  TraceSnapshot snapshot;
  snapshot.threads.reserve(registry.rings.size());
  for (const auto& ring : registry.rings) {
    ThreadTrace thread;
    thread.track = ring->track();
    thread.pushed = ring->pushed();
    ring->snapshot(thread.records);
    if (!thread.records.empty()) snapshot.threads.push_back(std::move(thread));
  }
  return snapshot;
}

void reset_trace() {
  RingRegistry& registry = RingRegistry::instance();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& ring : registry.rings) ring->clear();
}

util::Json chrome_trace_json(const TraceSnapshot& snapshot) {
  util::Json events = util::Json::array();

  util::Json process_meta = util::Json::object();
  process_meta.set("name", util::Json::string("process_name"));
  process_meta.set("ph", util::Json::string("M"));
  process_meta.set("pid", util::Json::number(std::uint64_t{1}));
  util::Json process_args = util::Json::object();
  process_args.set("name", util::Json::string("mcs"));
  process_meta.set("args", std::move(process_args));
  events.push(std::move(process_meta));

  struct Indexed {
    const TraceRecord* record;
    std::size_t track;
  };
  std::vector<Indexed> merged;
  for (const ThreadTrace& thread : snapshot.threads) {
    util::Json thread_meta = util::Json::object();
    thread_meta.set("name", util::Json::string("thread_name"));
    thread_meta.set("ph", util::Json::string("M"));
    thread_meta.set("pid", util::Json::number(std::uint64_t{1}));
    thread_meta.set("tid", util::Json::number(std::uint64_t{thread.track}));
    util::Json thread_args = util::Json::object();
    thread_args.set("name",
                    util::Json::string("track-" + std::to_string(thread.track)));
    thread_meta.set("args", std::move(thread_args));
    events.push(std::move(thread_meta));

    for (const TraceRecord& record : thread.records) {
      merged.push_back(Indexed{&record, thread.track});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Indexed& a, const Indexed& b) {
                     if (a.record->ts_ns != b.record->ts_ns) {
                       return a.record->ts_ns < b.record->ts_ns;
                     }
                     return a.track < b.track;
                   });

  for (const Indexed& entry : merged) {
    const TraceRecord& record = *entry.record;
    util::Json event = util::Json::object();
    event.set("name", util::Json::string(record.site->name));
    event.set("cat", util::Json::string("mcs"));
    event.set("pid", util::Json::number(std::uint64_t{1}));
    event.set("tid", util::Json::number(std::uint64_t{entry.track}));
    event.set("ts", microseconds_lexeme(record.ts_ns));
    switch (record.kind) {
      case TraceKind::kSpan:
        event.set("ph", util::Json::string("X"));
        event.set("dur", microseconds_lexeme(record.dur_ns));
        set_args(event, record);
        break;
      case TraceKind::kInstant:
        event.set("ph", util::Json::string("i"));
        event.set("s", util::Json::string("t"));
        set_args(event, record);
        break;
      case TraceKind::kCounter: {
        event.set("ph", util::Json::string("C"));
        util::Json args = util::Json::object();
        const char* value_name =
            record.site->arg0 != nullptr ? record.site->arg0 : "value";
        args.set(value_name, util::Json::number(record.dur_ns));
        event.set("args", std::move(args));
        break;
      }
    }
    events.push(std::move(event));
  }

  util::Json doc = util::Json::object();
  doc.set("displayTimeUnit", util::Json::string("ns"));
  doc.set("traceEvents", std::move(events));
  return doc;
}

TraceSummary summarize_chrome_trace(const util::Json& doc,
                                    std::string source) {
  const util::Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("trace: document has no traceEvents array");
  }

  struct FlatSpan {
    std::uint64_t tid = 0;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::string name;
  };
  std::vector<FlatSpan> spans;
  for (const util::Json& event : events->items()) {
    const util::Json* ph = event.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    FlatSpan span;
    span.tid = event.at("tid").as_u64();
    span.ts_ns = field_ns(event, "ts");
    span.dur_ns = field_ns(event, "dur");
    span.name = event.at("name").as_string();
    spans.push_back(std::move(span));
  }

  // Sort by (tid, start asc, duration desc) so within one thread a parent
  // span precedes its children even at equal start timestamps, then walk a
  // containment stack attributing self time.
  std::sort(spans.begin(), spans.end(),
            [](const FlatSpan& a, const FlatSpan& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;
            });

  struct Aggregate {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::vector<std::uint64_t> self_samples;
  };
  std::map<std::string, Aggregate> by_name;

  struct Open {
    std::uint64_t end_ns;
    std::int64_t self_ns;
    const std::string* name;
  };
  std::vector<Open> stack;
  const auto close_top = [&] {
    const Open open = stack.back();
    stack.pop_back();
    by_name[*open.name].self_samples.push_back(
        open.self_ns > 0 ? static_cast<std::uint64_t>(open.self_ns) : 0);
  };

  std::uint64_t current_tid = 0;
  bool have_tid = false;
  for (const FlatSpan& span : spans) {
    if (!have_tid || span.tid != current_tid) {
      while (!stack.empty()) close_top();
      current_tid = span.tid;
      have_tid = true;
    }
    while (!stack.empty() && stack.back().end_ns <= span.ts_ns) close_top();
    if (!stack.empty()) {
      stack.back().self_ns -= static_cast<std::int64_t>(span.dur_ns);
    }
    Aggregate& aggregate = by_name[span.name];
    aggregate.count += 1;
    aggregate.total_ns += span.dur_ns;
    // The stack stores a pointer into by_name's node-stable key.
    const std::string& stable_name = by_name.find(span.name)->first;
    stack.push_back(Open{span.ts_ns + span.dur_ns,
                         static_cast<std::int64_t>(span.dur_ns),
                         &stable_name});
  }
  while (!stack.empty()) close_top();

  TraceSummary summary;
  summary.source = std::move(source);
  for (auto& [name, aggregate] : by_name) {
    SpanStats stats;
    stats.name = name;
    stats.count = aggregate.count;
    stats.total_ns = aggregate.total_ns;
    std::sort(aggregate.self_samples.begin(), aggregate.self_samples.end());
    for (const std::uint64_t s : aggregate.self_samples) stats.self_ns += s;
    stats.p50_self_ns = percentile_sorted(aggregate.self_samples, 0.50);
    stats.p99_self_ns = percentile_sorted(aggregate.self_samples, 0.99);
    summary.spans.push_back(std::move(stats));
  }
  std::sort(summary.spans.begin(), summary.spans.end(),
            [](const SpanStats& a, const SpanStats& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });
  return summary;
}

util::Json trace_summary_json(const TraceSummary& summary) {
  util::Json doc = util::Json::object();
  doc.set("format", util::Json::string("mcs-trace-summary/1"));
  doc.set("source", util::Json::string(summary.source));
  util::Json spans = util::Json::array();
  for (const SpanStats& stats : summary.spans) {
    util::Json row = util::Json::object();
    row.set("name", util::Json::string(stats.name));
    row.set("count", util::Json::number(stats.count));
    row.set("total_ns", util::Json::number(stats.total_ns));
    row.set("self_ns", util::Json::number(stats.self_ns));
    row.set("p50_self_ns", util::Json::number(stats.p50_self_ns));
    row.set("p99_self_ns", util::Json::number(stats.p99_self_ns));
    spans.push(std::move(row));
  }
  doc.set("spans", std::move(spans));
  return doc;
}

TraceSummary parse_trace_summary(const util::Json& doc) {
  const util::Json* format = doc.find("format");
  if (format == nullptr || format->as_string() != "mcs-trace-summary/1") {
    throw std::runtime_error("trace summary: missing or unknown format tag");
  }
  TraceSummary summary;
  if (const util::Json* source = doc.find("source"); source != nullptr) {
    summary.source = source->as_string();
  }
  const util::Json* spans = doc.find("spans");
  if (spans == nullptr || !spans->is_array()) {
    throw std::runtime_error("trace summary: missing spans array");
  }
  for (const util::Json& row : spans->items()) {
    SpanStats stats;
    stats.name = row.at("name").as_string();
    stats.count = row.at("count").as_u64();
    stats.total_ns = row.at("total_ns").as_u64();
    stats.self_ns = row.at("self_ns").as_u64();
    stats.p50_self_ns = row.at("p50_self_ns").as_u64();
    stats.p99_self_ns = row.at("p99_self_ns").as_u64();
    summary.spans.push_back(std::move(stats));
  }
  return summary;
}

}  // namespace mcs::obs
