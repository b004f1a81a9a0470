#include "obs/trace.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/json_parse.h"

namespace ditto::obs {
namespace {

TEST(TraceCollectorTest, DisabledCollectorRecordsNothing) {
  TraceCollector tc;  // disabled by default
  EXPECT_FALSE(tc.enabled());
  tc.span("cat", "s", 0, 10);
  tc.instant("cat", "i", 5);
  tc.counter("cat", "c", 5, 1.0);
  tc.process_name(0, "server 0");
  EXPECT_EQ(tc.size(), 0u);
}

TEST(TraceCollectorTest, RecordsAllEventKinds) {
  TraceCollector tc;
  tc.set_enabled(true);
  tc.process_name(-1, "job");
  tc.span("engine.task", "scan/0", 100, 50, 2, 7, {{"rows", "10"}});
  tc.instant("scheduler", "plan-chosen", 3);
  tc.counter("exchange", "zero_copy_bytes", 120, 4096.0, -1);
  ASSERT_EQ(tc.size(), 4u);

  const auto events = tc.events();
  EXPECT_EQ(events[0].phase, EventPhase::kMeta);
  EXPECT_EQ(events[1].phase, EventPhase::kSpan);
  EXPECT_EQ(events[1].cat, "engine.task");
  EXPECT_EQ(events[1].ts_us, 100u);
  EXPECT_EQ(events[1].dur_us, 50u);
  EXPECT_EQ(events[1].pid, 2);
  EXPECT_EQ(events[1].tid, 7);
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].first, "rows");
  EXPECT_EQ(events[2].phase, EventPhase::kInstant);
  EXPECT_EQ(events[3].phase, EventPhase::kCounter);
  EXPECT_DOUBLE_EQ(events[3].value, 4096.0);
}

TEST(TraceCollectorTest, ConcurrentEmittersLoseNothing) {
  TraceCollector tc;
  tc.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tc, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tc.span("cat", "s", static_cast<std::uint64_t>(i), 1, t, i);
        tc.counter("cat", "c", static_cast<std::uint64_t>(i), i, t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tc.size(), static_cast<std::size_t>(kThreads * kPerThread * 2));
}

TEST(TraceCollectorTest, ChromeJsonIsValidAndComplete) {
  TraceCollector tc;
  tc.set_enabled(true);
  tc.process_name(0, "server 0");
  tc.span("engine.task", "scan/0", 10, 20, 0, 1);
  tc.instant("scheduler", "plan \"quoted\"", 1);
  tc.counter("exchange", "remote_bytes", 30, 123.0);

  const auto doc = parse_json(tc.to_chrome_json());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 4u);

  // The metadata event names the pid track.
  const JsonValue& meta = events->as_array()[0];
  EXPECT_EQ(meta.find("ph")->as_string(), "M");
  EXPECT_EQ(meta.find("name")->as_string(), "process_name");
  EXPECT_EQ(meta.find("args")->find("name")->as_string(), "server 0");

  const JsonValue& span = events->as_array()[1];
  EXPECT_EQ(span.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(span.find("ts")->as_number(), 10.0);
  EXPECT_DOUBLE_EQ(span.find("dur")->as_number(), 20.0);
  EXPECT_DOUBLE_EQ(span.find("tid")->as_number(), 1.0);

  const JsonValue& counter = events->as_array()[3];
  EXPECT_EQ(counter.find("ph")->as_string(), "C");
  EXPECT_DOUBLE_EQ(counter.find("args")->find("value")->as_number(), 123.0);
}

TEST(TraceCollectorTest, ClearEmptiesButStaysEnabled) {
  TraceCollector tc;
  tc.set_enabled(true);
  tc.span("a", "x", 0, 1);
  tc.clear();
  EXPECT_EQ(tc.size(), 0u);
  EXPECT_TRUE(tc.enabled());
}

TEST(ScopedSpanTest, EmitsOnScopeExitWithArgs) {
  TraceCollector& tc = TraceCollector::global();
  tc.clear();
  tc.set_enabled(true);
  {
    ScopedSpan span("test", "scoped", 3, 4);
    span.arg("k", "v");
    EXPECT_TRUE(span.active());
    EXPECT_EQ(tc.size(), 0u);  // nothing until scope exit
  }
  tc.set_enabled(false);
  ASSERT_EQ(tc.size(), 1u);
  const auto events = tc.events();
  EXPECT_EQ(events[0].phase, EventPhase::kSpan);
  EXPECT_EQ(events[0].name, "scoped");
  EXPECT_EQ(events[0].pid, 3);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].second, "v");
  tc.clear();
}

TEST(ScopedSpanTest, InertWhenDisabled) {
  TraceCollector& tc = TraceCollector::global();
  tc.clear();
  ASSERT_FALSE(tc.enabled());
  {
    DITTO_TRACE_SCOPE("test", "noop");
    ScopedSpan span("test", "noop2");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tc.size(), 0u);
}

TEST(TraceCollectorTest, NowIsMonotonic) {
  TraceCollector tc;
  const std::uint64_t a = tc.now_us();
  const std::uint64_t b = tc.now_us();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace ditto::obs
