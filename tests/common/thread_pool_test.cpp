#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace ditto {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, OnWorkerThreadIsTrueOnlyOnItsOwnWorkers) {
  ThreadPool a(2);
  ThreadPool b(1);
  EXPECT_FALSE(a.on_worker_thread());
  auto seen = a.submit([&] { return std::make_pair(a.on_worker_thread(), b.on_worker_thread()); });
  const auto [on_a, on_b] = seen.get();
  EXPECT_TRUE(on_a);
  EXPECT_FALSE(on_b);
}

TEST(ThreadPoolTest, SizeMatchesConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, ConcurrencyBoundedByWidth) {
  // With width 1, tasks serialize: peak concurrency is 1.
  ThreadPool pool(1);
  std::atomic<int> active{0}, peak{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 10; ++i) {
    futs.push_back(pool.submit([&] {
      const int cur = active.fetch_add(1) + 1;
      int p = peak.load();
      while (cur > p && !peak.compare_exchange_weak(p, cur)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      active.fetch_sub(1);
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(peak.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPoolTest, SubmitGuardedConvertsExceptionToStatus) {
  // Regression: a task that throws must surface as INTERNAL, not crash
  // the worker thread or poison the pool.
  ThreadPool pool(2);
  auto f = pool.submit_guarded([]() -> Status { throw std::runtime_error("task bug"); });
  const Status st = f.get();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("task bug"), std::string::npos);
  // The pool still works after the throw.
  auto ok = pool.submit_guarded([] { return Status::ok(); });
  EXPECT_TRUE(ok.get().is_ok());
}

TEST(ThreadPoolTest, SubmitGuardedHandlesNonStandardExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit_guarded([]() -> Status { throw 42; });
  EXPECT_EQ(f.get().code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, SubmitGuardedWrapsVoidCallables) {
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  auto ok = pool.submit_guarded([&ran] { ran = true; });
  EXPECT_TRUE(ok.get().is_ok());
  EXPECT_TRUE(ran.load());
  auto bad = pool.submit_guarded([]() { throw std::logic_error("void task bug"); });
  EXPECT_EQ(bad.get().code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, SubmitGuardedPassesStatusThrough) {
  ThreadPool pool(1);
  auto f = pool.submit_guarded([] { return Status::unavailable("transient"); });
  const Status st = f.get();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(st.message(), "transient");
}

}  // namespace
}  // namespace ditto
