#include "common/stopwatch.h"

#include <gtest/gtest.h>

namespace ditto {
namespace {

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  // Busy-wait a tiny amount.
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double us = sw.elapsed_micros();
  EXPECT_GT(us, 0.0);
  EXPECT_NEAR(sw.elapsed_millis(), us / 1000.0, us / 100.0);
}

TEST(StopwatchTest, ResetRestarts) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double first = sw.elapsed_seconds();
  sw.reset();
  EXPECT_LT(sw.elapsed_seconds(), first);
}

TEST(StopwatchTest, MonotoneNonDecreasing) {
  Stopwatch sw;
  double prev = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double t = sw.elapsed_seconds();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace ditto
