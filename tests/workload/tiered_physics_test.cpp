#include <gtest/gtest.h>

#include "storage/sim_store.h"
#include "timemodel/predictor.h"
#include "workload/queries.h"

namespace ditto::workload {
namespace {

PhysicsParams tiered_physics(Bytes threshold) {
  PhysicsParams p;
  p.store = storage::s3_model();
  p.use_fast_store = true;
  p.fast_store = storage::redis_model();
  p.fast_threshold = threshold;
  return p;
}

TEST(TieredPhysicsTest, SmallEdgesGetFastParameters) {
  // Q95's dimension edges are tiny; its fact edges are GBs. With a
  // 64 MB threshold the former must carry redis-class step betas.
  const JobDag tiered = build_query(QueryId::kQ95, 1000, tiered_physics(64_MB));
  PhysicsParams s3_only;
  s3_only.store = storage::s3_model();
  const JobDag plain = build_query(QueryId::kQ95, 1000, s3_only);

  const ExecTimePredictor pt(tiered), pp(plain);
  const auto none = nothing_colocated();
  // map3 -> join1 is an all-gather of a few MB: much cheaper tiered.
  EXPECT_LT(pt.edge_read_time(4, 5, 1), pp.edge_read_time(4, 5, 1));
  // map1 -> groupby moves tens of GB: unchanged (still S3).
  EXPECT_NEAR(pt.edge_write_time(0, 1, 10), pp.edge_write_time(0, 1, 10), 1e-9);
}

TEST(TieredPhysicsTest, TieredNeverSlowerThanS3Only) {
  const JobDag tiered = build_query(QueryId::kQ95, 1000, tiered_physics(64_MB));
  PhysicsParams s3_only;
  s3_only.store = storage::s3_model();
  const JobDag plain = build_query(QueryId::kQ95, 1000, s3_only);
  const ExecTimePredictor pt(tiered), pp(plain);
  for (StageId s = 0; s < tiered.num_stages(); ++s) {
    EXPECT_LE(pt.stage_time(s, 16, nothing_colocated()),
              pp.stage_time(s, 16, nothing_colocated()) + 1e-9)
        << tiered.stage(s).name();
  }
}

TEST(TieredPhysicsTest, ThresholdZeroDisablesFastPath) {
  const JobDag tiered = build_query(QueryId::kQ95, 1000, tiered_physics(0));
  PhysicsParams s3_only;
  s3_only.store = storage::s3_model();
  const JobDag plain = build_query(QueryId::kQ95, 1000, s3_only);
  const ExecTimePredictor pt(tiered), pp(plain);
  for (StageId s = 0; s < tiered.num_stages(); ++s) {
    EXPECT_NEAR(pt.stage_time(s, 16, nothing_colocated()),
                pp.stage_time(s, 16, nothing_colocated()), 1e-9);
  }
}

TEST(TieredPhysicsTest, StoreForSelectsByBytes) {
  const PhysicsParams p = tiered_physics(64_MB);
  EXPECT_LT(p.store_for(1_MB).request_latency, 0.001);
  EXPECT_GT(p.store_for(1_GB).request_latency, 0.01);
}

}  // namespace
}  // namespace ditto::workload
