// Synthetic recurring-job arrival traces: determinism, shape envelopes,
// repeat mixing, and option validation.
#include "service/arrival_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace ditto::service {
namespace {

TraceOptions base_options() {
  TraceOptions opt;
  opt.duration_s = 8.0;
  opt.rate_hz = 20.0;
  opt.repeat_ratio = 0.5;
  opt.distinct_jobs = 4;
  opt.seed = 42;
  return opt;
}

TEST(ArrivalTraceTest, DeterministicForSameSeed) {
  const auto a = generate_trace(base_options());
  const auto b = generate_trace(base_options());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i].at_s, (*b)[i].at_s);
    EXPECT_EQ((*a)[i].repeat, (*b)[i].repeat);
    EXPECT_EQ((*a)[i].template_id, (*b)[i].template_id);
    EXPECT_EQ((*a)[i].query, (*b)[i].query);
  }
  TraceOptions other = base_options();
  other.seed = 43;
  const auto c = generate_trace(other);
  ASSERT_TRUE(c.ok());
  bool differs = c->size() != a->size();
  for (std::size_t i = 0; !differs && i < a->size(); ++i) {
    differs = (*a)[i].at_s != (*c)[i].at_s;
  }
  EXPECT_TRUE(differs);
}

TEST(ArrivalTraceTest, ArrivalsSortedWithinDurationAtRoughlyTheRate) {
  const auto trace = generate_trace(base_options());
  ASSERT_TRUE(trace.ok());
  ASSERT_FALSE(trace->empty());
  for (std::size_t i = 1; i < trace->size(); ++i) {
    EXPECT_LE((*trace)[i - 1].at_s, (*trace)[i].at_s);
  }
  EXPECT_GE(trace->front().at_s, 0.0);
  EXPECT_LT(trace->back().at_s, base_options().duration_s);
  // ~160 expected; Poisson spread stays well inside a factor of 2.
  EXPECT_GT(trace->size(), 80u);
  EXPECT_LT(trace->size(), 320u);
}

TEST(ArrivalTraceTest, RepeatRatioShapesTheMix) {
  TraceOptions opt = base_options();
  opt.repeat_ratio = 0.8;
  const auto trace = generate_trace(opt);
  ASSERT_TRUE(trace.ok());
  std::size_t repeats = 0;
  std::set<std::size_t> templates;
  for (const TraceArrival& a : *trace) {
    if (a.repeat) {
      ++repeats;
      EXPECT_LT(a.template_id, static_cast<std::size_t>(opt.distinct_jobs));
      templates.insert(a.template_id);
    } else {
      EXPECT_GE(a.template_id, static_cast<std::size_t>(opt.distinct_jobs));
    }
  }
  const double frac = static_cast<double>(repeats) / static_cast<double>(trace->size());
  EXPECT_GT(frac, 0.65);
  EXPECT_LT(frac, 0.95);
  EXPECT_LE(templates.size(), static_cast<std::size_t>(opt.distinct_jobs));

  opt.repeat_ratio = 0.0;
  const auto unique_only = generate_trace(opt);
  ASSERT_TRUE(unique_only.ok());
  for (const TraceArrival& a : *unique_only) EXPECT_FALSE(a.repeat);
}

TEST(ArrivalTraceTest, RepeatedTemplateSharesSpecAndUniqueJobsDiffer) {
  const auto trace = generate_trace(base_options());
  ASSERT_TRUE(trace.ok());
  std::map<std::size_t, std::string> seen;  // template -> first spec string
  std::set<std::uint64_t> unique_seeds;
  for (const TraceArrival& a : *trace) {
    const std::string sig = a.query + "/" + std::to_string(a.spec.fact_rows) + "/" +
                            std::to_string(a.spec.seed);
    if (a.repeat) {
      const auto [it, inserted] = seen.emplace(a.template_id, sig);
      if (!inserted) {
        EXPECT_EQ(it->second, sig);  // identical resubmission
      }
    } else {
      EXPECT_TRUE(unique_seeds.insert(a.spec.seed).second)
          << "unique arrivals must not collide on data seed";
    }
  }
}

TEST(ArrivalTraceTest, BurstyConcentratesArrivals) {
  TraceOptions opt = base_options();
  opt.shape = TraceShape::kBursty;
  opt.rate_hz = 40.0;
  opt.burst_factor = 4.0;
  opt.burst_duty = 0.25;
  const auto trace = generate_trace(opt);
  ASSERT_TRUE(trace.ok());
  // The burst window is the first quarter of each 1 s period; it must
  // hold well more than its 25% share of arrivals.
  std::size_t in_burst = 0;
  for (const TraceArrival& a : *trace) {
    const double phase = a.at_s - std::floor(a.at_s);
    if (phase < opt.burst_duty) ++in_burst;
  }
  const double frac = static_cast<double>(in_burst) / static_cast<double>(trace->size());
  EXPECT_GT(frac, 0.5);
}

TEST(ArrivalTraceTest, DiurnalPeaksMidTrace) {
  TraceOptions opt = base_options();
  opt.shape = TraceShape::kDiurnal;
  opt.rate_hz = 40.0;
  const auto trace = generate_trace(opt);
  ASSERT_TRUE(trace.ok());
  std::size_t middle = 0;
  for (const TraceArrival& a : *trace) {
    if (a.at_s >= opt.duration_s * 0.25 && a.at_s < opt.duration_s * 0.75) ++middle;
  }
  const double frac = static_cast<double>(middle) / static_cast<double>(trace->size());
  EXPECT_GT(frac, 0.6);  // trough halves contribute little
}

TEST(ArrivalTraceTest, ValidatesOptions) {
  TraceOptions opt = base_options();
  opt.duration_s = 0.0;
  EXPECT_EQ(generate_trace(opt).status().code(), StatusCode::kInvalidArgument);
  opt = base_options();
  opt.rate_hz = -1.0;
  EXPECT_EQ(generate_trace(opt).status().code(), StatusCode::kInvalidArgument);
  opt = base_options();
  opt.repeat_ratio = 1.5;
  EXPECT_EQ(generate_trace(opt).status().code(), StatusCode::kInvalidArgument);
  opt = base_options();
  opt.repeat_ratio = 0.5;
  opt.distinct_jobs = 0;
  EXPECT_EQ(generate_trace(opt).status().code(), StatusCode::kInvalidArgument);
  opt = base_options();
  opt.shape = TraceShape::kBursty;
  opt.burst_factor = 0.5;
  EXPECT_EQ(generate_trace(opt).status().code(), StatusCode::kInvalidArgument);
}

TEST(ArrivalTraceTest, ShapeNames) {
  EXPECT_STREQ(trace_shape_name(TraceShape::kUniform), "uniform");
  EXPECT_STREQ(trace_shape_name(TraceShape::kBursty), "bursty");
  EXPECT_STREQ(trace_shape_name(TraceShape::kDiurnal), "diurnal");
}

}  // namespace
}  // namespace ditto::service
