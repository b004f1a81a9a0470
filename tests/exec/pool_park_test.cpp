// The process-wide park of idle private server pools: exclusive
// checkout, return only when idle, the parked-thread bound, and
// standalone engine runs that reuse parked threads instead of spawning
// a pool per server per run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "exec/datagen.h"
#include "exec/engine.h"
#include "storage/sim_store.h"
#include "workload/engine_queries.h"

namespace ditto::exec {
namespace {

/// Threads of this process, from /proc/self/status (0 when unreadable).
std::size_t process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST(EnginePoolParkTest, CheckoutIsExclusive) {
  PoolPark park;
  { const PoolPark::Lease warm = park.checkout({2, 3}); }  // park a 2- and a 3-pool
  EXPECT_EQ(park.parked_threads(), 5u);
  PoolPark::Lease a = park.checkout({2, 3});
  EXPECT_EQ(park.parked_threads(), 0u);
  PoolPark::Lease b = park.checkout({2, 3});
  EXPECT_NE(&a.pool(0), &b.pool(0));
  EXPECT_NE(&a.pool(1), &b.pool(1));
  EXPECT_EQ(a.pool(0).size(), 2u);
  EXPECT_EQ(a.pool(1).size(), 3u);
  EXPECT_EQ(b.pool(0).size(), 2u);
  EXPECT_EQ(b.pool(1).size(), 3u);
}

TEST(EnginePoolParkTest, ReturnedPoolIsReusedAtItsExactWidth) {
  PoolPark park;
  ThreadPool* four = nullptr;
  {
    PoolPark::Lease lease = park.checkout({4});
    four = &lease.pool(0);
  }
  EXPECT_EQ(park.parked_threads(), 4u);
  {
    PoolPark::Lease other_width = park.checkout({3});
    EXPECT_NE(&other_width.pool(0), four);
    EXPECT_EQ(other_width.pool(0).size(), 3u);
    PoolPark::Lease same_width = park.checkout({4});
    EXPECT_EQ(&same_width.pool(0), four);
  }
  EXPECT_EQ(park.parked_threads(), 7u);
  PoolPark::Lease clamped = park.checkout({0});  // widths clamp to >= 1
  EXPECT_EQ(clamped.pool(0).size(), 1u);
}

TEST(EnginePoolParkTest, PoolReturnsOnlyOnceIdle) {
  PoolPark park;
  std::atomic<bool> finished{false};
  std::promise<void> started;
  std::future<void> started_f = started.get_future();
  {
    PoolPark::Lease lease = park.checkout({1});
    lease.pool(0).submit([&] {
      started.set_value();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      finished.store(true);
    });
    lease.pool(0).submit([] {});  // still queued behind the sleeper
    started_f.wait();
  }  // the lease's destructor waits for both tasks before parking
  EXPECT_TRUE(finished.load());
  EXPECT_EQ(park.parked_threads(), 1u);
}

TEST(EnginePoolParkTest, ParkedThreadsStayUnderTheBound) {
  PoolPark park;
  constexpr std::size_t kBound = PoolPark::kMaxParkedThreads;
  {
    // More threads than the bound, in pools of 8.
    const std::vector<std::size_t> widths(kBound / 8 + 3, 8);
    PoolPark::Lease lease = park.checkout(widths);
  }
  EXPECT_LE(park.parked_threads(), kBound);
  EXPECT_GT(park.parked_threads(), kBound - 8);
  {
    // The most recently returned pools stay; a pool wider than the
    // bound is never parked.
    PoolPark::Lease lease = park.checkout({kBound + 1});
  }
  EXPECT_LE(park.parked_threads(), kBound);
  EXPECT_GT(park.parked_threads(), kBound - 8);
}

workload::EngineQuerySpec small_q95() {
  workload::EngineQuerySpec spec;
  spec.fact_rows = 20000;
  spec.num_orders = 3000;
  spec.seed = 1234;
  return spec;
}

cluster::PlacementPlan spread_plan(const JobDag& dag) {
  cluster::PlacementPlan plan;
  plan.dop.assign(dag.num_stages(), 3);
  plan.task_server.assign(dag.num_stages(), {0, 1, 2});
  return plan;
}

TEST(EnginePoolParkTest, BackToBackRunsKeepAnswersAndThreadCountFlat) {
  const workload::EngineJob job = workload::build_q95_engine_job(small_q95());
  const cluster::PlacementPlan plan = spread_plan(job.dag);
  std::map<StageId, Table> first;
  std::size_t threads_after_first = 0;
  for (int run = 0; run < 50; ++run) {
    auto store = storage::make_instant_store();
    MiniEngine engine(job.dag, plan, *store);
    const auto result = engine.run(job.bindings);
    ASSERT_TRUE(result.ok()) << "run " << run << ": " << result.status().to_string();
    if (run == 0) {
      first = result->sink_outputs;
      threads_after_first = process_threads();
      continue;
    }
    ASSERT_EQ(result->sink_outputs, first) << "run " << run;
    if (threads_after_first > 0) {
      ASSERT_EQ(process_threads(), threads_after_first) << "run " << run;
    }
  }
  EXPECT_GT(PoolPark::global().parked_threads(), 0u);
  EXPECT_LE(PoolPark::global().parked_threads(), PoolPark::kMaxParkedThreads);
}

TEST(EnginePoolParkTest, ConcurrentRunsNeverShareAPool) {
  // Two standalone runs at once, each one stage of two tasks on server
  // 0 (a 2-wide pool). Every task waits until all four have started, so
  // both runs hold their pools at the same time; a shared 2-wide pool
  // could not start four tasks, and the runs' worker threads must be
  // disjoint.
  const Table row = gen_fact_table({.rows = 1, .seed = 5});
  JobDag dag("one");
  (void)dag.add_stage("only");
  cluster::PlacementPlan plan;
  plan.dop = {2};
  plan.task_server = {{0, 0}};
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> arrived{0};
    std::mutex mu;
    std::set<std::thread::id> ids[2];
    bool all_met = true;
    const auto run_one = [&](int which) {
      std::map<StageId, StageBinding> bindings;
      bindings[0] = StageBinding{
          [&, which](int, int, const std::vector<Table>&) -> Result<Table> {
            {
              std::lock_guard<std::mutex> lock(mu);
              ids[which].insert(std::this_thread::get_id());
            }
            arrived.fetch_add(1);
            const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (arrived.load() < 4 && std::chrono::steady_clock::now() < give_up) {
              std::this_thread::yield();
            }
            if (arrived.load() < 4) {
              std::lock_guard<std::mutex> lock(mu);
              all_met = false;
            }
            return row;
          },
          ""};
      auto store = storage::make_instant_store();
      MiniEngine engine(dag, plan, *store);
      return engine.run(bindings).ok();
    };
    auto other = std::async(std::launch::async, run_one, 1);
    EXPECT_TRUE(run_one(0));
    EXPECT_TRUE(other.get());
    EXPECT_TRUE(all_met) << "round " << round << ": the runs did not overlap";
    EXPECT_EQ(ids[0].size(), 2u);
    EXPECT_EQ(ids[1].size(), 2u);
    for (const std::thread::id id : ids[0]) {
      EXPECT_EQ(ids[1].count(id), 0u) << "round " << round << ": a worker served both runs";
    }
  }
}

TEST(EnginePoolParkTest, FailedAndCancelledRunsReturnIdlePools) {
  const workload::EngineJob job = workload::build_q95_engine_job(small_q95());
  const cluster::PlacementPlan plan = spread_plan(job.dag);
  const auto clean_run = [&] {
    auto store = storage::make_instant_store();
    MiniEngine engine(job.dag, plan, *store);
    return engine.run(job.bindings);
  };
  const auto reference = clean_run();
  ASSERT_TRUE(reference.ok());
  const std::size_t threads = process_threads();

  // A run whose task 0 fails every attempt while its siblings are still
  // sleeping, and a run cancelled from inside a task.
  std::atomic<int> sleepers_started{0};
  std::atomic<int> sleepers_done{0};
  std::atomic<bool> cancel{false};
  for (const bool cancelled : {false, true}) {
    std::map<StageId, StageBinding> bindings = job.bindings;
    const StageFn original = bindings[0].fn;
    bindings[0].fn = [&, original, cancelled](int task, int dop,
                                              const std::vector<Table>& in) -> Result<Table> {
      if (task == 0) {
        if (cancelled) {
          cancel.store(true);
          return original(task, dop, in);
        }
        return Status::internal("injected task failure");
      }
      sleepers_started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      sleepers_done.fetch_add(1);
      return original(task, dop, in);
    };
    EngineOptions opts;
    opts.cancel = &cancel;
    opts.resilience.max_task_attempts = 1;
    auto store = storage::make_instant_store();
    MiniEngine engine(job.dag, plan, *store, opts);
    const auto result = engine.run(bindings);
    // Every sibling that started finished before the run returned (and
    // so before its pools went back to the park).
    EXPECT_EQ(sleepers_done.load(), sleepers_started.load());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              cancelled ? StatusCode::kCancelled : StatusCode::kInternal);
    cancel.store(false);
  }
  EXPECT_GE(sleepers_done.load(), 2);  // the failed run's siblings all ran
  EXPECT_LE(PoolPark::global().parked_threads(), PoolPark::kMaxParkedThreads);

  // The returned pools are reused: same answer, no new threads.
  const auto after = clean_run();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->sink_outputs, reference->sink_outputs);
  if (threads > 0) {
    EXPECT_EQ(process_threads(), threads);
  }
}

}  // namespace
}  // namespace ditto::exec
