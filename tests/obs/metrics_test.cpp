#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/trace.h"
#include "support/json_parse.h"

namespace ditto::obs {
namespace {

TEST(MetricsRegistryTest, CounterAddReturnsPostAddValue) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  EXPECT_EQ(c.add(), 1u);
  EXPECT_EQ(c.add(9), 10u);
  EXPECT_EQ(c.value(), 10u);
}

TEST(MetricsRegistryTest, SameNameAndLabelsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("requests", {{"kind", "s3"}, {"op", "get"}});
  // Label order must not matter: canonical key sorts by label name.
  Counter& b = reg.counter("requests", {{"op", "get"}, {"kind", "s3"}});
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistryTest, DifferentLabelsDistinctInstances) {
  MetricsRegistry reg;
  Counter& a = reg.counter("requests", {{"op", "get"}});
  Counter& b = reg.counter("requests", {{"op", "put"}});
  Counter& c = reg.counter("requests");
  EXPECT_NE(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistryTest, KindsAreSeparateNamespaces) {
  // A counter and a gauge may share a name without colliding.
  MetricsRegistry reg;
  reg.counter("x").add(5);
  reg.gauge("x").set(2.5);
  EXPECT_EQ(reg.counter("x").value(), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("x").value(), 2.5);
}

TEST(MetricsRegistryTest, GaugeTracksLevels) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("inflight");
  g.add(1.0);
  g.add(1.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(MetricsRegistryTest, HistogramAggregates) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("latency", 0.0, 1.0, 10);
  h.observe(0.1);
  h.observe(0.3);
  h.observe(0.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.stats().mean(), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(h.stats().min(), 0.1);
  EXPECT_DOUBLE_EQ(h.stats().max(), 0.5);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Mix of cached reference and registry lookup, as real call
      // sites do.
      Counter& local = reg.counter("hits");
      for (int i = 0; i < kPerThread; ++i) local.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(MetricsRegistryTest, SnapshotSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("b.count").add(2);
  reg.gauge("a.level").set(1.5);
  reg.histogram("c.hist", 0.0, 1.0, 4).observe(0.25);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.level");
  EXPECT_EQ(snap[0].kind, MetricSample::Kind::kGauge);
  EXPECT_EQ(snap[1].name, "b.count");
  EXPECT_DOUBLE_EQ(snap[1].value, 2.0);
  EXPECT_EQ(snap[2].kind, MetricSample::Kind::kHistogram);
  EXPECT_DOUBLE_EQ(snap[2].value, 1.0);  // histogram count
}

TEST(MetricsRegistryTest, TextSnapshotHasCanonicalLabels) {
  MetricsRegistry reg;
  reg.counter("requests", {{"op", "get"}, {"kind", "s3"}}).add(4);
  const std::string text = reg.to_text();
  // Labels render sorted by name regardless of registration order.
  EXPECT_NE(text.find("requests{kind=s3,op=get} 4"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, TextSnapshotExpandsHistograms) {
  MetricsRegistry reg;
  reg.histogram("lat", 0.0, 1.0, 4).observe(0.5);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("lat_count"), std::string::npos);
  EXPECT_NE(text.find("lat_mean"), std::string::npos);
  EXPECT_NE(text.find("lat_min"), std::string::npos);
  EXPECT_NE(text.find("lat_max"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotParses) {
  MetricsRegistry reg;
  reg.counter("n", {{"k", "v"}}).add(1);
  reg.gauge("g").set(0.5);
  reg.histogram("h", 0.0, 1.0, 4).observe(0.1);
  const auto doc = parse_json(reg.to_json());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  EXPECT_EQ(metrics->as_array().size(), 3u);
  for (const JsonValue& m : metrics->as_array()) {
    ASSERT_NE(m.find("name"), nullptr);
    ASSERT_NE(m.find("type"), nullptr);
    const std::string type = m.find("type")->as_string();
    if (type == "histogram") {
      EXPECT_NE(m.find("count"), nullptr);
      EXPECT_NE(m.find("mean"), nullptr);
    } else {
      EXPECT_NE(m.find("value"), nullptr);
    }
  }
}

TEST(MetricsRegistryTest, ResetZeroesInPlaceKeepingReferences) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  HistogramMetric& h = reg.histogram("h", 0.0, 1.0, 4);
  c.add(5);
  g.set(2.0);
  h.observe(0.5);
  reg.reset();
  // Registrations survive; the handed-out references still work.
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(c.add(), 1u);
  EXPECT_EQ(&reg.counter("c"), &c);
}

TEST(MetricsRegistryTest, EnabledFlagDefaultsOff) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  reg.set_enabled(true);
  EXPECT_TRUE(reg.enabled());
}

TEST(MetricsRegistryTest, SetObservabilityEnabledFlipsBothGlobals) {
  set_observability_enabled(true);
  EXPECT_TRUE(MetricsRegistry::global().enabled());
  EXPECT_TRUE(TraceCollector::global().enabled());
  set_observability_enabled(false);
  EXPECT_FALSE(MetricsRegistry::global().enabled());
  EXPECT_FALSE(TraceCollector::global().enabled());
}

}  // namespace
}  // namespace ditto::obs
