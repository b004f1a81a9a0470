#include "cluster/arena.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ditto::cluster {
namespace {

TEST(ArenaTest, ReserveAndRelease) {
  Arena arena(100, "a");
  EXPECT_TRUE(arena.reserve(60).is_ok());
  EXPECT_EQ(arena.used(), 60u);
  EXPECT_EQ(arena.available(), 40u);
  arena.release(60);
  EXPECT_EQ(arena.used(), 0u);
}

TEST(ArenaTest, RejectsOverflow) {
  Arena arena(100, "a");
  EXPECT_TRUE(arena.reserve(100).is_ok());
  EXPECT_EQ(arena.reserve(1).code(), StatusCode::kResourceExhausted);
}

TEST(ArenaTest, HighWaterTracksPeak) {
  Arena arena(100, "a");
  ASSERT_TRUE(arena.reserve(30).is_ok());
  ASSERT_TRUE(arena.reserve(40).is_ok());
  arena.release(50);
  ASSERT_TRUE(arena.reserve(10).is_ok());
  EXPECT_EQ(arena.high_water(), 70u);
}

TEST(ArenaTest, ConcurrentReservationsNeverOversubscribe) {
  Arena arena(1000, "c");
  std::vector<std::thread> threads;
  std::atomic<int> grants{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 1000; ++j) {
        if (arena.reserve(1).is_ok()) grants.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(grants.load(), 1000);
  EXPECT_EQ(arena.used(), 1000u);
}

}  // namespace
}  // namespace ditto::cluster
