// Tests for the unified telemetry subsystem: instrument exactness under
// concurrency, span nesting, snapshot consistency while writers are live,
// and golden renderings of both exposition formats (Prometheus text and the
// json::Writer house style).
#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace lumen::telemetry {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kIters = 50000;

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Registry reg;
  Counter& c = reg.counter("t.counter");
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (size_t i = 0; i < kIters; ++i) c.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kIters);
  EXPECT_EQ(reg.snapshot().counter_value("t.counter"), kThreads * kIters);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, SameNameReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("dup");
  Counter& b = reg.counter("dup");
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);
}

TEST(GaugeTest, SetAddMax) {
  Registry reg;
  Gauge& g = reg.gauge("t.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.update_max(3.0);  // below current: no change
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.update_max(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(GaugeTest, ConcurrentAddSumsExactly) {
  Registry reg;
  Gauge& g = reg.gauge("t.gauge");
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (size_t i = 0; i < kIters; ++i) g.add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kIters));
}

TEST(GaugeTest, ConcurrentMaxIsGlobalMax) {
  Registry reg;
  Gauge& g = reg.gauge("t.max");
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (size_t i = 0; i < kIters; ++i) {
        g.update_max(static_cast<double>(t * kIters + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kIters - 1));
}

TEST(HistogramTest, BucketPlacementAndTotals) {
  Registry reg;
  Histogram& h = reg.histogram("t.hist", {1.0, 2.0, 4.0});
  h.record(0.5);  // <= 1
  h.record(1.0);  // <= 1 (bounds are inclusive upper bounds)
  h.record(1.5);  // <= 2
  h.record(8.0);  // +Inf
  const std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 11.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, FirstCallFixesBounds) {
  Registry reg;
  Histogram& a = reg.histogram("h", {1.0, 2.0});
  Histogram& b = reg.histogram("h", {99.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(HistogramTest, ConcurrentRecordsSumExactly) {
  Registry reg;
  Histogram& h = reg.histogram("t.hist", {0.0, 1.0, 2.0});
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (size_t i = 0; i < kIters; ++i) {
        h.record(static_cast<double>(i % 4));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kIters);
  // Each thread records kIters/4 of each value 0,1,2,3 -> sum = 6 * kIters/4.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads * kIters / 4 * 6));
  const std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  for (const uint64_t c : counts) EXPECT_EQ(c, kThreads * kIters / 4);
}

TEST(SnapshotTest, ConsistentWhileWritersLive) {
  Registry reg;
  Counter& c = reg.counter("live.counter");
  Histogram& h = reg.histogram("live.hist", {1.0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.add(1);
        h.record(0.5);
        Span span(&reg, "live.span");
        span.stop();
      }
    });
  }
  // Counter reads must be monotonic across snapshots taken mid-write.
  uint64_t prev = 0;
  for (int i = 0; i < 200; ++i) {
    const Snapshot snap = reg.snapshot();
    const uint64_t now = snap.counter_value("live.counter");
    EXPECT_GE(now, prev);
    prev = now;
    const HistogramSample* hs = snap.find_histogram("live.hist");
    ASSERT_NE(hs, nullptr);
    uint64_t bucket_total = 0;
    for (const uint64_t b : hs->counts) bucket_total += b;
    EXPECT_EQ(bucket_total, hs->count);
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(reg.snapshot().counter_value("live.counter"), c.value());
}

TEST(SpanTest, NestingParentDepthAndAnnotations) {
  Registry reg;
  uint64_t outer_id = 0, inner_id = 0;
  {
    Span outer(&reg, "outer", "top level");
    outer_id = outer.id();
    {
      Span inner(&reg, "inner");
      inner_id = inner.id();
      inner.set_value(42);
      inner.stop();
    }
    outer.set_flag(true);
  }
  EXPECT_NE(outer_id, 0u);
  EXPECT_NE(inner_id, 0u);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);  // completion order: inner first
  const SpanRecord* inner = snap.find_span(inner_id);
  const SpanRecord* outer = snap.find_span(outer_id);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(snap.spans[0].id, inner_id);
  EXPECT_EQ(inner->parent, outer_id);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(inner->value, 42u);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(outer->detail, "top level");
  EXPECT_TRUE(outer->flag);
  EXPECT_GE(outer->seconds, inner->seconds);
  EXPECT_GE(inner->start, outer->start);
}

TEST(SpanTest, RegistriesNestIndependently) {
  Registry a, b;
  {
    Span outer(&a, "a.outer");
    Span foreign(&b, "b.span");  // different registry: no parent link
    Span inner(&a, "a.inner");
    EXPECT_NE(outer.id(), 0u);
    inner.stop();
    foreign.stop();
  }
  const Snapshot sa = a.snapshot();
  const Snapshot sb = b.snapshot();
  ASSERT_EQ(sa.spans.size(), 2u);
  ASSERT_EQ(sb.spans.size(), 1u);
  EXPECT_EQ(sb.spans[0].parent, 0u);
  EXPECT_EQ(sb.spans[0].depth, 0u);
  // a.inner still parents to a.outer across the foreign span.
  EXPECT_EQ(sa.spans[0].name, "a.inner");
  EXPECT_EQ(sa.spans[0].depth, 1u);
}

TEST(SpanTest, NullRegistryIsInert) {
  Span span(nullptr, "inert");
  span.set_value(1);
  span.stop();
  EXPECT_EQ(span.id(), 0u);
  EXPECT_DOUBLE_EQ(span.seconds(), 0.0);
}

TEST(SpanTest, SetSpanFlagPatchesRecordedSpan) {
  Registry reg;
  uint64_t id = 0;
  {
    Span span(&reg, "patched");
    id = span.id();
  }
  EXPECT_FALSE(reg.snapshot().find_span(id)->flag);
  reg.set_span_flag(id, true);
  EXPECT_TRUE(reg.snapshot().find_span(id)->flag);
}

TEST(SpanTest, LogDropsOldestBeyondCapacity) {
  Registry reg;
  const size_t extra = 10;
  for (size_t i = 0; i < kSpanLogCapacity + extra; ++i) {
    Span span(&reg, "s");
    span.stop();
  }
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.spans.size(), kSpanLogCapacity);
  // Oldest `extra` spans (ids 1..extra) were dropped; order is preserved.
  EXPECT_EQ(snap.spans.front().id, extra + 1);
  EXPECT_EQ(snap.spans.back().id, kSpanLogCapacity + extra);
  for (size_t i = 1; i < snap.spans.size(); ++i) {
    EXPECT_EQ(snap.spans[i].id, snap.spans[i - 1].id + 1);
  }
}

TEST(RegistryTest, ResetZeroesButKeepsReferences) {
  Registry reg;
  Counter& c = reg.counter("r.counter");
  Gauge& g = reg.gauge("r.gauge");
  Histogram& h = reg.histogram("r.hist", {1.0});
  c.add(5);
  g.set(3.0);
  h.record(0.5);
  {
    Span span(&reg, "r.span");
  }
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(reg.snapshot().spans.empty());
  c.add(1);  // references stay live after reset
  EXPECT_EQ(reg.snapshot().counter_value("r.counter"), 1u);
}

TEST(SnapshotTest, LookupsMissGracefully) {
  Registry reg;
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find_counter("absent"), nullptr);
  EXPECT_EQ(snap.find_gauge("absent"), nullptr);
  EXPECT_EQ(snap.find_histogram("absent"), nullptr);
  EXPECT_EQ(snap.find_span(7), nullptr);
  EXPECT_EQ(snap.counter_value("absent", 9), 9u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("absent", 1.5), 1.5);
}

/// Fills a registry with one of each instrument at known values; no spans
/// (span timings are non-deterministic, so the golden tests exclude them).
void fill_demo(Registry& reg) {
  reg.counter("demo.count").add(3);
  reg.gauge("demo.depth").set(2.5);
  Histogram& h = reg.histogram("demo.lat", {1.0, 2.0});
  h.record(0.5);
  h.record(1.5);
  h.record(5.0);
}

TEST(ExpositionTest, PrometheusGolden) {
  Registry reg;
  fill_demo(reg);
  const std::string expected =
      "# TYPE lumen_demo_count counter\n"
      "lumen_demo_count 3\n"
      "# TYPE lumen_demo_depth gauge\n"
      "lumen_demo_depth 2.5\n"
      "# TYPE lumen_demo_lat histogram\n"
      "lumen_demo_lat_bucket{le=\"1\"} 1\n"
      "lumen_demo_lat_bucket{le=\"2\"} 2\n"
      "lumen_demo_lat_bucket{le=\"+Inf\"} 3\n"
      "lumen_demo_lat_sum 7\n"
      "lumen_demo_lat_count 3\n";
  EXPECT_EQ(reg.snapshot().to_prometheus(), expected);
}

TEST(ExpositionTest, JsonGolden) {
  Registry reg;
  fill_demo(reg);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"demo.count\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"demo.depth\": 2.5\n"
      "  },\n"
      "  \"histograms\": [\n"
      "    {\"name\": \"demo.lat\", \"bounds\": [1, 2], "
      "\"counts\": [1, 1, 1], \"sum\": 7, \"count\": 3}\n"
      "  ],\n"
      "  \"spans\": []\n"
      "}\n";
  EXPECT_EQ(reg.snapshot().to_json(), expected);
}

TEST(JsonWriterTest, GoldenBenchShapedDocument) {
  // The exact document an fprintf-based bench emitter would have produced;
  // the Writer must reproduce it byte for byte.
  json::Writer w;
  w.kv_str("benchmark", "demo");
  w.kv_u64("rows", 3);
  w.kv_f("seconds", 0.25, 4);
  w.begin_array("items");
  w.begin_inline_object();
  w.kv_str("name", "a");
  w.kv_f("rate", 1.5, 1);
  w.end();
  w.begin_inline_object();
  w.kv_str("name", "b");
  w.kv_f("rate", 4.0, 1);
  w.end();
  w.end();
  w.begin_inline_object("totals");
  w.kv_u64("ok", 2);
  w.kv_u64("failed", 0);
  w.end();
  w.kv_bool("deterministic", true);
  const std::string expected =
      "{\n"
      "  \"benchmark\": \"demo\",\n"
      "  \"rows\": 3,\n"
      "  \"seconds\": 0.2500,\n"
      "  \"items\": [\n"
      "    {\"name\": \"a\", \"rate\": 1.5},\n"
      "    {\"name\": \"b\", \"rate\": 4.0}\n"
      "  ],\n"
      "  \"totals\": {\"ok\": 2, \"failed\": 0},\n"
      "  \"deterministic\": true\n"
      "}\n";
  EXPECT_EQ(w.str(), expected);
}

TEST(JsonWriterTest, EscapesAndNumberForms) {
  EXPECT_EQ(json::Writer::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json::Writer::format_number(7.0), "7");
  EXPECT_EQ(json::Writer::format_number(-3.0), "-3");
  EXPECT_EQ(json::Writer::format_number(2.5), "2.5");
  EXPECT_EQ(json::Writer::format_number(0.0), "0");
  json::Writer w;
  w.kv_num("int_like", 12.0);
  w.kv_num("frac", 0.125);
  EXPECT_EQ(w.str(),
            "{\n  \"int_like\": 12,\n  \"frac\": 0.125\n}\n");
}

TEST(ExpositionTest, PrometheusSanitizesMetricNames) {
  Registry reg;
  reg.counter("ingest.stage-1/drops").add(1);
  const std::string out = reg.snapshot().to_prometheus();
  EXPECT_NE(out.find("lumen_ingest_stage_1_drops 1"), std::string::npos);
}

}  // namespace
}  // namespace lumen::telemetry
