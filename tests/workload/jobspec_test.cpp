#include "workload/jobspec.h"

#include <gtest/gtest.h>

namespace ditto::workload {
namespace {

constexpr const char* kSpec = R"(# a small query
job demo
stage scan map input=4GB output=1GB
stage agg reduce output=10MB
edge scan agg shuffle bytes=1GB
)";

TEST(ParseSizeTest, DecimalAndBinaryUnits) {
  EXPECT_EQ(parse_size("42").value(), 42u);
  EXPECT_EQ(parse_size("42B").value(), 42u);
  EXPECT_EQ(parse_size("1KB").value(), 1000u);
  EXPECT_EQ(parse_size("2MB").value(), 2'000'000u);
  EXPECT_EQ(parse_size("3GB").value(), 3'000'000'000u);
  EXPECT_EQ(parse_size("1KiB").value(), 1024u);
  EXPECT_EQ(parse_size("1MiB").value(), 1024u * 1024);
  EXPECT_EQ(parse_size("1.5GB").value(), 1'500'000'000u);
}

TEST(ParseSizeTest, Rejections) {
  EXPECT_FALSE(parse_size("").ok());
  EXPECT_FALSE(parse_size("GB").ok());
  EXPECT_FALSE(parse_size("12XB").ok());
}

TEST(JobSpecTest, ParsesStagesEdgesAndAttributes) {
  const auto dag = parse_job_spec(kSpec);
  ASSERT_TRUE(dag.ok()) << dag.status().to_string();
  EXPECT_EQ(dag->name(), "demo");
  EXPECT_EQ(dag->num_stages(), 2u);
  EXPECT_EQ(dag->stage(0).op(), "map");
  EXPECT_EQ(dag->stage(0).input_bytes(), 4_GB);
  EXPECT_EQ(dag->stage(1).output_bytes(), 10_MB);
  const Edge* e = dag->find_edge(0, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->exchange, ExchangeKind::kShuffle);
  EXPECT_EQ(e->bytes, 1_GB);
}

TEST(JobSpecTest, DefaultEdgeKindAndBytes) {
  const auto dag = parse_job_spec(
      "job j\nstage a map output=2GB\nstage b map\nedge a b\n");
  ASSERT_TRUE(dag.ok());
  const Edge* e = dag->find_edge(0, 1);
  EXPECT_EQ(e->exchange, ExchangeKind::kShuffle);
  EXPECT_EQ(e->bytes, 2_GB);  // defaults to the source's output
}

TEST(JobSpecTest, AllExchangeKindsParse) {
  for (const char* kind : {"shuffle", "gather", "broadcast", "all-gather"}) {
    const auto dag = parse_job_spec("job j\nstage a map\nstage b map\nedge a b " +
                                    std::string(kind) + "\n");
    EXPECT_TRUE(dag.ok()) << kind;
  }
}

TEST(JobSpecTest, ErrorsCarryLineNumbers) {
  const auto r = parse_job_spec("job j\nstage a map\nbogus directive\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

TEST(JobSpecTest, StageBeforeJobFails) {
  EXPECT_FALSE(parse_job_spec("stage a map\n").ok());
  EXPECT_FALSE(parse_job_spec("").ok());
  EXPECT_FALSE(parse_job_spec("job a\njob b\n").ok());
}

TEST(JobSpecTest, UnknownAttributesFail) {
  EXPECT_FALSE(parse_job_spec("job j\nstage a map wat=1GB\n").ok());
  EXPECT_FALSE(parse_job_spec("job j\nstage a map\nstage b map\nedge a b wat=1\n").ok());
}

TEST(JobSpecTest, CycleRejectedThroughBuilder) {
  EXPECT_FALSE(
      parse_job_spec("job j\nstage a map\nstage b map\nedge a b\nedge b a\n").ok());
}

TEST(ClusterSpecTest, PlainShape) {
  const auto cl = parse_cluster_spec("4x16");
  ASSERT_TRUE(cl.ok());
  EXPECT_EQ(cl->num_servers(), 4u);
  EXPECT_EQ(cl->total_slots(), 64);
}

TEST(ClusterSpecTest, Distributions) {
  const auto zipf = parse_cluster_spec("8x96@zipf-0.9");
  ASSERT_TRUE(zipf.ok());
  EXPECT_EQ(zipf->num_servers(), 8u);
  EXPECT_LT(zipf->total_slots(), 8 * 96);  // skew shrinks the tail
  const auto uni = parse_cluster_spec("8x96@uniform-0.5");
  ASSERT_TRUE(uni.ok());
  EXPECT_EQ(uni->total_slots(), 8 * 48);
  EXPECT_TRUE(parse_cluster_spec("8x96@norm-1.0").ok());
}

TEST(ClusterSpecTest, Rejections) {
  EXPECT_FALSE(parse_cluster_spec("8").ok());
  EXPECT_FALSE(parse_cluster_spec("0x4").ok());
  EXPECT_FALSE(parse_cluster_spec("axb").ok());
  EXPECT_FALSE(parse_cluster_spec("4x4@weird-1").ok());
  EXPECT_FALSE(parse_cluster_spec("4x4@zipf").ok());
}

}  // namespace
}  // namespace ditto::workload
