#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/engine.hpp"
#include "service/metrics.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/collector.hpp"
#include "trace/export.hpp"
#include "trace/prometheus.hpp"
#include "trace/sampler.hpp"

namespace mpct::trace {
namespace {

/// The Tracer is a process-wide singleton shared by every test in this
/// binary: each test starts from a disabled, empty, default-capacity
/// state and leaves it that way.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(Tracer::kDefaultCapacity); }
  void TearDown() override { reset(Tracer::kDefaultCapacity); }

  static void reset(std::size_t capacity) {
    Tracer& tracer = Tracer::instance();
    tracer.disable();
    tracer.set_capacity_per_thread(capacity);
    tracer.clear();
  }
};

const Span* find_span(const TraceSnapshot& snap, std::string_view name) {
  for (const Span& span : snap.spans) {
    if (span.name != nullptr && name == span.name) return &span;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Recording semantics

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(enabled());
  {
    ScopedSpan span("never", Category::Core);
    EXPECT_FALSE(span.active());
    span.annotate("x", 1);
  }
  const auto t0 = std::chrono::steady_clock::now();
  emit_span("never.interval", Category::Queue, t0, t0);
  emit_instant("never.instant", Category::Mark);
  profile_count(ProfilePoint::ClassifyFast);
  { ProfileTimer timer(ProfilePoint::NocReroute); }

  const TraceSnapshot snap = Tracer::instance().snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_EQ(snap.dropped, 0u);
  for (const ProfileTotals& totals : snap.profile) {
    EXPECT_EQ(totals.calls, 0u);
    EXPECT_EQ(totals.total_ns, 0);
  }
}

TEST_F(TraceTest, NestedSpansLinkParentAndStayOrdered) {
  Tracer::instance().enable();
  {
    ScopedSpan outer("outer", Category::Core);
    EXPECT_TRUE(outer.active());
    {
      ScopedSpan inner("inner", Category::Cost, "cells", 42);
      EXPECT_TRUE(inner.active());
    }
  }
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  const Span* outer = find_span(snap, "outer");
  const Span* inner = find_span(snap, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);

  EXPECT_NE(outer->id, 0u);
  EXPECT_NE(inner->id, 0u);
  EXPECT_NE(outer->id, inner->id);
  EXPECT_EQ(outer->parent, 0u);           // root
  EXPECT_EQ(inner->parent, outer->id);    // nested
  EXPECT_EQ(outer->thread, inner->thread);
  EXPECT_EQ(outer->category, Category::Core);
  EXPECT_EQ(inner->category, Category::Cost);
  ASSERT_NE(inner->arg_name, nullptr);
  EXPECT_STREQ(inner->arg_name, "cells");
  EXPECT_EQ(inner->arg, 42);

  // The inner interval sits inside the outer one.
  EXPECT_GE(outer->start_ns, 0);
  EXPECT_GE(outer->dur_ns, 0);
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns,
            outer->start_ns + outer->dur_ns);
  EXPECT_FALSE(outer->instant());
}

TEST_F(TraceTest, EmitSpanReproducesTheMeasuredInterval) {
  Tracer::instance().enable();
  const auto t0 = std::chrono::steady_clock::now();
  // Burn a little time so the interval is nonzero.
  volatile int sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  const auto t1 = std::chrono::steady_clock::now();
  emit_span("queue.wait", Category::Queue, t0, t1, "depth", 7);
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  const Span* span = find_span(snap, "queue.wait");
  ASSERT_NE(span, nullptr);
  const std::int64_t expected =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  EXPECT_EQ(span->dur_ns, expected);
  EXPECT_GE(span->start_ns, 0);
  EXPECT_EQ(span->category, Category::Queue);
  ASSERT_NE(span->arg_name, nullptr);
  EXPECT_STREQ(span->arg_name, "depth");
  EXPECT_EQ(span->arg, 7);
}

TEST_F(TraceTest, InstantEventsCarryTheSentinelDuration) {
  Tracer::instance().enable();
  emit_instant("deadline.expired", Category::Mark, "reason", 2);
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  const Span* span = find_span(snap, "deadline.expired");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->dur_ns, Span::kInstant);
  EXPECT_TRUE(span->instant());
  EXPECT_EQ(span->category, Category::Mark);
  EXPECT_EQ(span->arg, 2);
}

TEST_F(TraceTest, RingWrapDropsOldestSpansAndCountsThem) {
  reset(8);  // tiny ring so 20 spans must wrap
  Tracer::instance().enable();
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span("wrapped", Category::Sweep, "i", i);
  }
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  // Quiescent arithmetic: head = 20, capacity 8 keeps indices [12, 20),
  // and the in-flight-writer guard discards one more -> 7 survivors,
  // 13 reported dropped.  Survivors are the NEWEST spans, oldest first.
  ASSERT_EQ(snap.spans.size(), 7u);
  EXPECT_EQ(snap.dropped, 13u);
  for (std::size_t k = 0; k < snap.spans.size(); ++k) {
    EXPECT_EQ(snap.spans[k].arg, static_cast<std::int64_t>(13 + k));
  }
}

TEST_F(TraceTest, ClearDropsSpansAndProfileTotals) {
  Tracer::instance().enable();
  { ScopedSpan span("gone", Category::Core); }
  profile_count(ProfilePoint::SweepCell);
  Tracer::instance().clear();
  { ScopedSpan span("kept", Category::Core); }
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  EXPECT_EQ(find_span(snap, "gone"), nullptr);
  EXPECT_NE(find_span(snap, "kept"), nullptr);
  EXPECT_EQ(snap.profile[static_cast<std::size_t>(ProfilePoint::SweepCell)]
                .calls,
            0u);
}

TEST_F(TraceTest, ProfileCountersAccumulateCallsAndTime) {
  Tracer::instance().enable();
  profile_count(ProfilePoint::ClassifyFast);
  profile_count(ProfilePoint::ClassifyFast);
  profile_count(ProfilePoint::ClassifyFast);
  {
    ProfileTimer timer(ProfilePoint::NocReroute);
    volatile int sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  const auto& classify =
      snap.profile[static_cast<std::size_t>(ProfilePoint::ClassifyFast)];
  EXPECT_EQ(classify.calls, 3u);
  EXPECT_EQ(classify.total_ns, 0);  // count-only point
  const auto& reroute =
      snap.profile[static_cast<std::size_t>(ProfilePoint::NocReroute)];
  EXPECT_EQ(reroute.calls, 1u);
  EXPECT_GT(reroute.total_ns, 0);
}

// ---------------------------------------------------------------------------
// Snapshot determinism + exporters

TEST_F(TraceTest, SnapshotIsSortedAndExportsDeterministically) {
  Tracer::instance().enable();
  { ScopedSpan span("main.a", Category::Core); }
  std::thread other([] {
    ScopedSpan span("other.b", Category::Cost);
  });
  other.join();
  { ScopedSpan span("main.c", Category::Core); }
  Tracer::instance().disable();

  const TraceSnapshot first = Tracer::instance().snapshot();
  const TraceSnapshot second = Tracer::instance().snapshot();
  ASSERT_EQ(first.spans.size(), 3u);
  EXPECT_GE(first.thread_count, 2u);
  EXPECT_TRUE(std::is_sorted(first.spans.begin(), first.spans.end(),
                             [](const Span& a, const Span& b) {
                               if (a.start_ns != b.start_ns)
                                 return a.start_ns < b.start_ns;
                               return a.id < b.id;
                             }));
  // A frozen buffer renders byte-identically, every time.
  EXPECT_EQ(to_chrome_json(first), to_chrome_json(second));
}

/// Minimal recursive-descent JSON validator: accepts exactly the
/// grammar the Chrome exporter can emit, rejecting anything torn or
/// unbalanced.  ~RFC 8259 minus number edge cases we never produce.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default:  return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(std::string_view text, std::string_view what) {
  std::size_t count = 0;
  for (std::size_t at = text.find(what); at != std::string_view::npos;
       at = text.find(what, at + what.size())) {
    ++count;
  }
  return count;
}

TEST_F(TraceTest, ChromeJsonIsStructurallyValid) {
  Tracer::instance().enable();
  {
    ScopedSpan outer("outer \"quoted\"\n", Category::Engine);
    ScopedSpan inner("inner", Category::Chunk, "cells", 17);
  }
  emit_instant("deadline.expired", Category::Mark);
  Tracer::instance().disable();

  const std::string json = to_chrome_json(Tracer::instance().snapshot());
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Trace-event envelope Perfetto expects.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  // Two complete spans (ph X with ts+dur), one instant (ph i).
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\",\"s\":\"t\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"name\":"), 3u);
  EXPECT_EQ(count_occurrences(json, "\"pid\":1,\"tid\":"), 3u);
  EXPECT_EQ(count_occurrences(json, "\"args\":{\"span\":"), 3u);
  EXPECT_EQ(count_occurrences(json, "\"dur\":"), 2u);  // instants omit dur
  EXPECT_NE(json.find("\"cells\":17"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"chunk\""), std::string::npos);
  // The hostile name was escaped, never emitted raw.
  EXPECT_NE(json.find("outer \\\"quoted\\\"\\n"), std::string::npos);
}

TEST_F(TraceTest, EmptySnapshotExportsAnEmptyValidDocument) {
  const std::string json = to_chrome_json(Tracer::instance().snapshot());
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_EQ(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST_F(TraceTest, PromWriterRendersProfileTotals) {
  TraceSnapshot snap;
  snap.profile[static_cast<std::size_t>(ProfilePoint::ClassifyFast)] = {5, 0};
  snap.profile[static_cast<std::size_t>(ProfilePoint::NocReroute)] = {2, 900};

  PromWriter writer;
  render_profile(writer, snap);
  const std::string& text = writer.str();
  EXPECT_NE(text.find("# TYPE mpct_profile_calls_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("mpct_profile_calls_total{point=\"classify_fast\"} 5"),
      std::string::npos);
  EXPECT_NE(text.find("mpct_profile_ns_total{point=\"noc_reroute\"} 900"),
            std::string::npos);
}

/// Pull every `metric{...,le="..."} value` sample for one histogram
/// series out of an exposition document, in emission order.
std::vector<std::uint64_t> bucket_values(const std::string& text,
                                         const std::string& prefix) {
  std::vector<std::uint64_t> values;
  for (std::size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + prefix.size())) {
    const std::size_t space = text.find(' ', at);
    const std::size_t eol = text.find('\n', at);
    if (space == std::string::npos || eol == std::string::npos) break;
    values.push_back(static_cast<std::uint64_t>(
        std::stoull(text.substr(space + 1, eol - space - 1))));
    at = eol;
  }
  return values;
}

TEST_F(TraceTest, RegistryPrometheusExpositionIsWellFormed) {
  service::MetricsRegistry metrics;
  metrics.submitted.add(4);
  metrics.completed.add(3);
  metrics.failed.add(1);
  metrics.queue_depth.set(2);
  metrics.batch_sizes.record(2);
  metrics.batch_sizes.record(1);
  // 1 ns and 3 ns land in buckets 0 and 1; 5 us in bucket 12.
  metrics.latency(service::RequestType::Classify)
      .record(std::chrono::nanoseconds(1));
  metrics.latency(service::RequestType::Classify)
      .record(std::chrono::nanoseconds(3));
  metrics.latency(service::RequestType::Classify)
      .record(std::chrono::microseconds(5));

  service::CacheStats cache;
  cache.hits = 7;
  cache.entries = 3;
  const std::string text = metrics.to_prometheus(cache);

  EXPECT_NE(text.find("# TYPE mpct_requests_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mpct_requests_submitted_total 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mpct_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("mpct_queue_depth 2"), std::string::npos);
  EXPECT_NE(text.find("mpct_cache_entries 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mpct_request_latency_seconds histogram"),
            std::string::npos);
  // Pinned le bound of bucket 0: (2^1 - 1) ns = 1e-09 s.
  EXPECT_NE(text.find("mpct_request_latency_seconds_bucket{type=\"classify\""
                      ",le=\"1e-09\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("mpct_request_latency_seconds_sum{type=\"classify\"}"),
            std::string::npos);
  EXPECT_NE(text.find("mpct_request_latency_seconds_count{type=\"classify\"}"
                      " 3"),
            std::string::npos);

  // Cumulative buckets are nondecreasing and the +Inf bucket equals the
  // series count, for every request type.
  for (std::size_t t = 0; t < service::kRequestTypeCount; ++t) {
    const std::string label(
        to_string(static_cast<service::RequestType>(t)));
    const std::vector<std::uint64_t> buckets = bucket_values(
        text, "mpct_request_latency_seconds_bucket{type=\"" + label + "\"");
    ASSERT_FALSE(buckets.empty()) << label;
    EXPECT_TRUE(std::is_sorted(buckets.begin(), buckets.end())) << label;
    const std::vector<std::uint64_t> counts = bucket_values(
        text, "mpct_request_latency_seconds_count{type=\"" + label + "\"");
    ASSERT_EQ(counts.size(), 1u) << label;
    EXPECT_EQ(buckets.back(), counts.front()) << label;  // le="+Inf"
  }

  // Profile totals only appear on request.
  EXPECT_EQ(text.find("mpct_profile_calls_total"), std::string::npos);
  Tracer::instance().enable();
  profile_count(ProfilePoint::OmegaRoute);
  Tracer::instance().disable();
  const std::string with_profile = metrics.to_prometheus(cache, true);
  EXPECT_NE(
      with_profile.find("mpct_profile_calls_total{point=\"omega_route\"} 1"),
      std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace context propagation

TEST_F(TraceTest, TraceContextScopeStampsSpansAndRestores) {
  Tracer::instance().enable();
  EXPECT_EQ(current_trace_id(), 0u);
  { ScopedSpan span("ctx.none", Category::Core); }
  {
    TraceContextScope outer(42);
    EXPECT_EQ(current_trace_id(), 42u);
    { ScopedSpan span("ctx.outer", Category::Core); }
    {
      TraceContextScope inner(43);
      EXPECT_EQ(current_trace_id(), 43u);
      { ScopedSpan span("ctx.inner", Category::Core); }
      emit_instant("ctx.mark", Category::Mark);
    }
    // The inner scope restored the outer context, not zero.
    EXPECT_EQ(current_trace_id(), 42u);
    { ScopedSpan span("ctx.again", Category::Core); }
  }
  EXPECT_EQ(current_trace_id(), 0u);
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  EXPECT_EQ(find_span(snap, "ctx.none")->trace_id, 0u);
  EXPECT_EQ(find_span(snap, "ctx.outer")->trace_id, 42u);
  EXPECT_EQ(find_span(snap, "ctx.inner")->trace_id, 43u);
  EXPECT_EQ(find_span(snap, "ctx.mark")->trace_id, 43u);
  EXPECT_EQ(find_span(snap, "ctx.again")->trace_id, 42u);
}

// ---------------------------------------------------------------------------
// Head/tail sampling (sampler.hpp + ExportFilter)

TEST(TraceSampler, HeadDecisionIsDeterministicAndFleetWide) {
  const SamplerPolicy policy = SamplerPolicy::probabilistic(0.25);
  std::size_t kept = 0;
  for (std::uint64_t id = 1; id <= 100000; ++id) {
    const bool first = head_keep(policy, id);
    // Pure function of (policy, id): every node in the fleet lands on
    // the same side for the same trace, call after call.
    EXPECT_EQ(head_keep(policy, id), first);
    EXPECT_EQ(first, static_cast<double>(mix_trace_id(id)) <
                         0.25 * 18446744073709551616.0);
    if (first) ++kept;
  }
  // splitmix64 is uniform: the keep fraction tracks the probability.
  EXPECT_GT(kept, 23000u);
  EXPECT_LT(kept, 27000u);

  EXPECT_TRUE(head_keep(SamplerPolicy::always(), 7));
  SamplerPolicy never;
  never.mode = SamplerPolicy::Mode::Never;
  EXPECT_FALSE(head_keep(never, 7));
  EXPECT_TRUE(head_keep(SamplerPolicy::probabilistic(1.0), 99));
  EXPECT_FALSE(head_keep(SamplerPolicy::probabilistic(0.0), 99));
}

TEST(TraceSampler, TailTriggersFireOnErrorsExpiryHedgesAndSlowSpans) {
  SamplerPolicy policy = SamplerPolicy::probabilistic(0.0);
  Span healthy;
  healthy.name = "execute.recommend";
  healthy.dur_ns = 100;
  EXPECT_FALSE(tail_trigger(policy, healthy));
  for (const char* name : {"deadline.expired", "request.failed",
                           "cluster.hedge", "cluster.failover"}) {
    Span mark;
    mark.name = name;
    mark.dur_ns = Span::kInstant;
    EXPECT_TRUE(tail_trigger(policy, mark)) << name;
  }
  // The latency trigger is off by default and never fires on instants
  // (kInstant is a sentinel, not a duration).
  policy.slow_span_ns = 1000;
  EXPECT_FALSE(tail_trigger(policy, healthy));
  healthy.dur_ns = 1000;
  EXPECT_TRUE(tail_trigger(policy, healthy));
  Span instant;
  instant.name = "cache.note";
  instant.dur_ns = Span::kInstant;
  EXPECT_FALSE(tail_trigger(policy, instant));
}

TEST(TraceSampler, ExportFilterRescuesTriggeredTracesAtZeroProbability) {
  ExportFilter filter(SamplerPolicy::probabilistic(0.0));
  Span healthy;
  healthy.name = "execute.classify";
  healthy.id = 1;
  healthy.trace_id = 100;
  healthy.dur_ns = 10;
  Span before;
  before.name = "engine.submit";
  before.id = 2;
  before.trace_id = 200;
  before.dur_ns = 10;
  Span failed;
  failed.name = "request.failed";
  failed.id = 3;
  failed.trace_id = 200;
  failed.dur_ns = Span::kInstant;

  // The whole of trace 200 comes back — including the span recorded
  // *before* its trigger — while trace 100 is sampled out.
  const std::vector<ExportSpan> kept =
      filter.apply({healthy, before, failed});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].name, "engine.submit");
  EXPECT_EQ(kept[1].name, "request.failed");
  EXPECT_EQ(filter.sampled_out(), 1u);

  // The force-keep is sticky: later batches of trace 200 still export.
  Span later;
  later.name = "execute.classify";
  later.id = 4;
  later.trace_id = 200;
  later.dur_ns = 5;
  Span other;
  other.name = "execute.classify";
  other.id = 5;
  other.trace_id = 100;
  other.dur_ns = 5;
  const std::vector<ExportSpan> second = filter.apply({later, other});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].trace_id, 200u);
  EXPECT_EQ(filter.sampled_out(), 2u);
}

// ---------------------------------------------------------------------------
// Exporter drain cursor (Tracer::drain) vs on-demand snapshots

TEST_F(TraceTest, DrainIsIncrementalAndLeavesSnapshotsAlone) {
  Tracer::instance().enable();
  { ScopedSpan span("drain.a", Category::Core); }
  { ScopedSpan span("drain.b", Category::Core); }
  Tracer::instance().disable();

  EXPECT_EQ(Tracer::instance().snapshot().spans.size(), 2u);
  const Tracer::DrainResult first = Tracer::instance().drain();
  EXPECT_EQ(first.spans.size(), 2u);
  EXPECT_EQ(first.dropped, 0u);
  // The cursor belongs to drain() alone: a snapshot taken after the
  // drain still sees everything the ring holds...
  EXPECT_EQ(Tracer::instance().snapshot().spans.size(), 2u);
  // ...and draining again returns nothing — no double export.
  EXPECT_TRUE(Tracer::instance().drain().spans.empty());

  Tracer::instance().enable();
  { ScopedSpan span("drain.c", Category::Core); }
  Tracer::instance().disable();
  const Tracer::DrainResult second = Tracer::instance().drain();
  ASSERT_EQ(second.spans.size(), 1u);
  EXPECT_STREQ(second.spans[0].name, "drain.c");
  EXPECT_EQ(Tracer::instance().snapshot().spans.size(), 3u);
}

TEST_F(TraceTest, DrainCountsRingWrapPastItsCursor) {
  reset(8);
  Tracer::instance().enable();
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span("wrapped", Category::Sweep, "i", i);
  }
  Tracer::instance().disable();

  // Same arithmetic as the snapshot wrap case: indices [0, 13) wrapped
  // past the cursor before the first drain, the newest 7 survive.
  const Tracer::DrainResult drained = Tracer::instance().drain();
  ASSERT_EQ(drained.spans.size(), 7u);
  EXPECT_EQ(drained.dropped, 13u);
  for (std::size_t k = 0; k < drained.spans.size(); ++k) {
    EXPECT_EQ(drained.spans[k].arg, static_cast<std::int64_t>(13 + k));
  }
  // Every loss was counted exactly once: a second drain is clean.
  const Tracer::DrainResult again = Tracer::instance().drain();
  EXPECT_TRUE(again.spans.empty());
  EXPECT_EQ(again.dropped, 0u);
}

/// The satellite regression test for the exporter cursor: drain() runs
/// against a live recorder with snapshots interleaved, and every span
/// must come back exactly once or be counted dropped — never twice,
/// never torn.  Runs under TSan in CI.
TEST_F(TraceTest, MidTrafficDrainNeverDoubleExportsAndAccountsExactly) {
  reset(512);  // small ring so the writer laps the exporter
  Tracer::instance().enable();
  constexpr int kPushed = 20000;
  std::thread writer([] {
    for (int i = 0; i < kPushed; ++i) {
      ScopedSpan span("drain.mid", Category::Core, "seq", i);
    }
  });

  std::vector<std::int64_t> seen;
  std::uint64_t dropped = 0;
  const auto absorb = [&seen, &dropped](const Tracer::DrainResult& result) {
    dropped += result.dropped;
    for (const Span& span : result.spans) {
      ASSERT_STREQ(span.name, "drain.mid");  // fully written, never torn
      ASSERT_STREQ(span.arg_name, "seq");
      ASSERT_GE(span.dur_ns, 0);
      seen.push_back(span.arg);
    }
  };
  for (int round = 0; round < 50; ++round) {
    absorb(Tracer::instance().drain());
    // On-demand dumps interleave with the stream without perturbing it.
    const TraceSnapshot snap = Tracer::instance().snapshot();
    for (const Span& span : snap.spans) {
      ASSERT_NE(span.name, nullptr);
    }
    std::this_thread::yield();
  }
  writer.join();
  Tracer::instance().disable();
  absorb(Tracer::instance().drain());

  // Strictly increasing sequence numbers: the cursor advanced past
  // everything it returned, so nothing was exported twice; and nothing
  // went missing either — exported once or counted dropped.
  for (std::size_t k = 1; k < seen.size(); ++k) {
    ASSERT_LT(seen[k - 1], seen[k]) << "span exported twice or reordered";
  }
  EXPECT_EQ(seen.size() + dropped, static_cast<std::size_t>(kPushed));
}

// ---------------------------------------------------------------------------
// Cross-fleet assembly (trace/collector.hpp)

TEST(TraceCollector, GroupsByTraceAlignsClocksAndFiltersProcessRows) {
  Collector collector;

  SpanBatch alpha;
  alpha.node = "alpha";
  alpha.send_ns = 1000;
  ExportSpan root;
  root.name = "alpha.root";
  root.id = 10;
  root.trace_id = 1;
  root.start_ns = 100;
  root.dur_ns = 50;
  root.category = Category::Engine;
  ExportSpan other;
  other.name = "alpha.other";
  other.id = 11;
  other.trace_id = 2;
  other.start_ns = 300;
  other.dur_ns = 10;
  other.category = Category::Engine;
  alpha.spans = {root, other};
  collector.ingest(alpha, 501000);  // offset(alpha) = 500000

  SpanBatch beta;
  beta.node = "beta";
  beta.send_ns = 2000;
  beta.dropped = 5;
  ExportSpan hop;
  hop.name = "beta.hop";
  hop.id = 20;
  hop.trace_id = 1;
  hop.start_ns = 100000;
  hop.dur_ns = 20;
  hop.category = Category::Cluster;
  beta.spans = {hop};
  collector.ingest(beta, 302000);  // offset(beta) = 300000

  // A later, slower batch must not loosen beta's offset: the one-way-
  // delay minimum keeps the tightest bound seen.
  SpanBatch beta_slow;
  beta_slow.node = "beta";
  beta_slow.send_ns = 3000;
  collector.ingest(beta_slow, 312000);  // delta 309000 > 300000: ignored

  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.spans, 3u);
  EXPECT_EQ(stats.dropped, 5u);
  EXPECT_EQ(stats.nodes, 2u);
  EXPECT_EQ(collector.trace_ids(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(collector.node_count(1), 2u);
  EXPECT_EQ(collector.node_count(2), 1u);
  EXPECT_EQ(collector.node_count(99), 0u);
  EXPECT_EQ(collector.richest_trace(), 1u);  // the only two-node trace

  const std::string timeline = collector.assemble(1);
  EXPECT_TRUE(JsonChecker(timeline).valid()) << timeline;
  EXPECT_EQ(count_occurrences(timeline, "\"process_name\""), 2u);
  EXPECT_NE(timeline.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(timeline.find("\"name\":\"beta\""), std::string::npos);
  // Clock alignment: beta's hop lands at 100000 + 300000 ns = 400 us,
  // alpha's root at 100 + 500000 ns = 500.1 us — so beta renders FIRST
  // even though its raw clock reads much later than alpha's.
  EXPECT_NE(timeline.find("\"ts\":400.000"), std::string::npos);
  EXPECT_NE(timeline.find("\"ts\":500.100"), std::string::npos);
  EXPECT_LT(timeline.find("beta.hop"), timeline.find("alpha.root"));
  EXPECT_NE(timeline.find("\"trace\":1"), std::string::npos);
  // The trace filter held: trace 2's span is not on this timeline.
  EXPECT_EQ(timeline.find("alpha.other"), std::string::npos);

  // A single-node trace renders only the contributing process row —
  // no empty rows for the rest of the fleet.
  const std::string solo = collector.assemble(2);
  EXPECT_TRUE(JsonChecker(solo).valid()) << solo;
  EXPECT_EQ(count_occurrences(solo, "\"process_name\""), 1u);
  EXPECT_NE(solo.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_EQ(solo.find("beta"), std::string::npos);
  EXPECT_NE(solo.find("alpha.other"), std::string::npos);

  EXPECT_EQ(collector.assemble(99), "");
  const std::string everything = collector.assemble_all();
  EXPECT_TRUE(JsonChecker(everything).valid());
  EXPECT_NE(everything.find("alpha.other"), std::string::npos);
  EXPECT_NE(everything.find("beta.hop"), std::string::npos);
}

}  // namespace
}  // namespace mpct::trace

// ---------------------------------------------------------------------------
// Engine integration: the traced request lifecycle (this suite also runs
// under TSan in CI, together with the mid-traffic snapshot test below).

namespace mpct::service {
namespace {

using trace::Category;
using trace::Span;
using trace::TraceSnapshot;
using trace::Tracer;

class EngineTraceTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    Tracer::instance().disable();
    Tracer::instance().set_capacity_per_thread(Tracer::kDefaultCapacity);
    Tracer::instance().clear();
  }
};

explore::SweepGrid traced_grid() {
  explore::SweepGrid grid;
  grid.n_values = {2, 4, 8, 16};
  grid.lut_budgets = {64, 4096};
  grid.objectives = {explore::Requirements::Objective::MinConfigBits,
                     explore::Requirements::Objective::MinArea};
  return grid;
}

std::vector<const Span*> spans_named(const TraceSnapshot& snap,
                                     std::string_view name) {
  std::vector<const Span*> out;
  for (const Span& span : snap.spans) {
    if (span.name != nullptr && name == span.name) out.push_back(&span);
  }
  return out;
}

/// The acceptance shape: one traced SweepRequest on a single worker
/// produces queue-wait, chunk-execute and merge spans that together fit
/// inside the end-to-end latency the engine itself recorded.
TEST_F(EngineTraceTest, SweepSpansAccountForRecordedLatency) {
  Tracer::instance().enable();
  EngineOptions options;
  options.worker_threads = 1;
  QueryEngine engine(options);
  QueryResponse response = engine.submit(SweepRequest{traced_grid()}).get();
  ASSERT_TRUE(response.ok()) << response.status.to_string();
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  EXPECT_EQ(snap.dropped, 0u);

  const auto submits = spans_named(snap, "engine.submit");
  ASSERT_EQ(submits.size(), 1u);
  ASSERT_NE(submits[0]->arg_name, nullptr);
  EXPECT_STREQ(submits[0]->arg_name, "type");
  EXPECT_EQ(submits[0]->arg,
            static_cast<std::int64_t>(RequestType::Sweep));
  EXPECT_EQ(spans_named(snap, "engine.enqueue").size(), 1u);

  const auto probes = spans_named(snap, "cache.probe");
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_STREQ(probes[0]->arg_name, "hit");
  EXPECT_EQ(probes[0]->arg, 0);  // cold cache

  const auto waits = spans_named(snap, "queue.wait");
  const auto chunks = spans_named(snap, "sweep.chunk");
  const auto merges = spans_named(snap, "sweep.merge");
  ASSERT_FALSE(waits.empty());
  ASSERT_FALSE(chunks.empty());
  ASSERT_EQ(merges.size(), 1u);
  EXPECT_EQ(waits.size(), chunks.size());  // one wait per dequeued chunk

  // With one worker the chunk and merge intervals are disjoint pieces of
  // the submit-to-completion window, so their sum can never exceed the
  // latency the engine recorded; every queue wait also fits inside it.
  const std::int64_t latency = response.latency.count();
  std::int64_t accounted = merges[0]->dur_ns;
  std::int64_t total_cells = 0;
  for (const Span* chunk : chunks) {
    EXPECT_EQ(chunk->category, Category::Chunk);
    ASSERT_NE(chunk->arg_name, nullptr);
    EXPECT_STREQ(chunk->arg_name, "cells");
    accounted += chunk->dur_ns;
    total_cells += chunk->arg;
  }
  EXPECT_EQ(total_cells,
            static_cast<std::int64_t>(traced_grid().cell_count()));
  EXPECT_GT(latency, 0);
  EXPECT_LE(accounted, latency);
  for (const Span* wait : waits) {
    EXPECT_EQ(wait->category, Category::Queue);
    EXPECT_LE(wait->dur_ns, latency);
  }
  // The merge ran after every chunk had closed — a sibling, not a child.
  for (const Span* chunk : chunks) {
    EXPECT_NE(merges[0]->parent, chunk->id);
    EXPECT_GE(merges[0]->start_ns, chunk->start_ns + chunk->dur_ns);
  }

  // And the whole trace exports as loadable Chrome JSON.
  const std::string json = trace::to_chrome_json(snap);
  EXPECT_TRUE(trace::JsonChecker(json).valid());
}

TEST_F(EngineTraceTest, CacheProbeAnnotatesHitAndMiss) {
  Tracer::instance().enable();
  EngineOptions options;
  options.worker_threads = 0;  // inline: deterministic span counts
  QueryEngine engine(options);
  RecommendRequest request;
  request.requirements.min_flexibility = 3;
  ASSERT_TRUE(engine.submit(Request(request)).get().ok());
  QueryResponse second = engine.submit(Request(request)).get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  const auto probes = spans_named(snap, "cache.probe");
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_EQ(probes[0]->arg, 0);  // miss, then
  EXPECT_EQ(probes[1]->arg, 1);  // hit
  // Both rounds run under an execute span (the hit resolves inside it),
  // and each probe is nested in its round's execute span.
  const auto executes = spans_named(snap, "execute.recommend");
  ASSERT_EQ(executes.size(), 2u);
  EXPECT_EQ(probes[0]->parent, executes[0]->id);
  EXPECT_EQ(probes[1]->parent, executes[1]->id);
}

TEST_F(EngineTraceTest, ExpiredDeadlineEmitsAnInstantMarker) {
  Tracer::instance().enable();
  EngineOptions options;
  options.worker_threads = 0;
  QueryEngine engine(options);
  QueryResponse response =
      engine
          .submit(Request(RecommendRequest{}),
                  Deadline::at_time(Clock::now() - std::chrono::seconds(1)))
          .get();
  EXPECT_EQ(response.status.code, StatusCode::DeadlineExceeded);
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  const auto marks = spans_named(snap, "deadline.expired");
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_TRUE(marks[0]->instant());
  EXPECT_EQ(marks[0]->category, Category::Mark);
}

/// A grid job that ages out in the queue is one expiry, however many
/// chunks find it dead: one instant, one rejection.  A sweep is one
/// task, so the job here is a fault curve, which is split into chunks.
TEST_F(EngineTraceTest, QueuedGridExpiryEmitsOneInstant) {
  Tracer::instance().enable();
  EngineOptions options;
  options.worker_threads = 4;
  options.start_workers = false;
  QueryEngine engine(options);
  FaultSweepRequest curve;
  curve.spec.machine.granularity = Granularity::IpDp;
  curve.spec.machine.ips = Multiplicity::Many;
  curve.spec.machine.dps = Multiplicity::Many;
  curve.spec.machine.set_switch(ConnectivityRole::IpDp, SwitchKind::Crossbar);
  curve.spec.bindings.n = 4;
  curve.spec.fault_rates = {0.0, 0.1, 0.25, 0.5};
  curve.spec.trials_per_rate = 16;
  std::future<QueryResponse> future =
      engine.submit(curve, Deadline::in(std::chrono::milliseconds(5)));
  EXPECT_GT(engine.queue_depth(), 1u);  // really split into chunks
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.start();
  EXPECT_EQ(future.get().status.code, StatusCode::DeadlineExceeded);
  engine.drain();
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  EXPECT_EQ(spans_named(snap, "deadline.expired").size(), 1u);
  EXPECT_EQ(engine.metrics().rejected_deadline.value(), 1u);
  EXPECT_EQ(engine.metrics().expired_in_queue.value(), 1u);
}

/// Trace-id propagation across the submit boundary: the submitter's
/// context must reach every span the request produces, including the
/// queue waits and chunk spans recorded on pool worker threads.
TEST_F(EngineTraceTest, SubmitterTraceContextReachesWorkerSpans) {
  Tracer::instance().enable();
  EngineOptions options;
  options.worker_threads = 1;
  QueryEngine engine(options);
  QueryResponse response;
  {
    trace::TraceContextScope context(0xabcd);
    response = engine.submit(SweepRequest{traced_grid()}).get();
  }
  ASSERT_TRUE(response.ok()) << response.status.to_string();
  Tracer::instance().disable();

  const TraceSnapshot snap = Tracer::instance().snapshot();
  for (const char* name : {"engine.submit", "engine.enqueue", "queue.wait",
                           "sweep.chunk", "sweep.merge", "cache.probe"}) {
    const auto spans = spans_named(snap, name);
    ASSERT_FALSE(spans.empty()) << name;
    for (const Span* span : spans) {
      EXPECT_EQ(span->trace_id, 0xabcdu) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Mid-traffic consistency (the TSan target): snapshots taken while
// workers are recording must contain only fully-written spans, and the
// metrics histograms must never tear.

TEST_F(EngineTraceTest, MidTrafficSnapshotsAreInternallyConsistent) {
  Tracer::instance().disable();
  Tracer::instance().set_capacity_per_thread(512);  // force ring wrap
  Tracer::instance().clear();
  Tracer::instance().enable();

  EngineOptions options;
  options.worker_threads = 2;
  options.queue_capacity = 4096;
  QueryEngine engine(options);

  constexpr int kProducers = 2;
  constexpr int kPerProducer = 150;
  std::atomic<bool> failed{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &failed, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        RecommendRequest request;
        // Vary the fingerprint so the cache serves hits AND misses.
        request.requirements.min_flexibility = (p * kPerProducer + i) % 7;
        request.top_k = static_cast<std::size_t>(i % 3);
        if (!engine.submit(Request(request)).get().ok()) {
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }

  const LatencyHistogram& recommend_latency =
      engine.metrics().latency(RequestType::Recommend);
  LatencyHistogram::Buckets previous = recommend_latency.buckets();
  for (int round = 0; round < 25; ++round) {
    const TraceSnapshot snap = Tracer::instance().snapshot();
    for (const Span& span : snap.spans) {
      // Discarded-slot arithmetic guarantees fully-written spans only.
      ASSERT_NE(span.name, nullptr);
      ASSERT_NE(span.id, 0u);
      ASSERT_GE(span.dur_ns, Span::kInstant);
      ASSERT_GE(span.start_ns, 0);
      ASSERT_LT(span.thread, snap.thread_count);
      ASSERT_LE(static_cast<unsigned>(span.category),
                static_cast<unsigned>(Category::Mark));
    }
    // Histogram reads race records but are monotone, never torn.
    const LatencyHistogram::Buckets current = recommend_latency.buckets();
    ASSERT_GE(current.count, previous.count);
    ASSERT_GE(current.sum_ns, previous.sum_ns);
    for (std::size_t b = 0; b < LatencyHistogram::kBucketCount; ++b) {
      ASSERT_GE(current.counts[b], previous.counts[b]) << "bucket " << b;
    }
    previous = current;
    std::this_thread::yield();
  }

  for (std::thread& producer : producers) producer.join();
  engine.drain();
  EXPECT_FALSE(failed.load());
  Tracer::instance().disable();

  // Quiescent: the histogram adds up exactly.
  const LatencyHistogram::Buckets drained = recommend_latency.buckets();
  EXPECT_EQ(drained.count,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t count : drained.counts) bucket_sum += count;
  EXPECT_EQ(bucket_sum, drained.count);
  // And the frozen buffer still exports deterministically.
  const TraceSnapshot snap = Tracer::instance().snapshot();
  EXPECT_EQ(trace::to_chrome_json(snap),
            trace::to_chrome_json(Tracer::instance().snapshot()));
}

}  // namespace
}  // namespace mpct::service
