// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation (§6): it runs the full pipeline (ground-truth workload ->
// profile -> schedule -> simulate) for each configuration the figure
// sweeps and prints the same rows/series the paper reports. Absolute
// numbers come from the simulator substrate, so they are not expected
// to match AWS wall-clock; the comparisons (who wins, by what factor)
// are the reproduction target.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "faults/fault_injector.h"
#include "scheduler/baselines.h"
#include "scheduler/ditto_scheduler.h"
#include "sim/sim_runner.h"
#include "storage/sim_store.h"
#include "workload/queries.h"

namespace ditto::bench {

/// Spins hardware_concurrency() threads until a 100 ms window shows
/// nearly all CPUs busy, so the timing that follows starts on a host
/// that grants every core: a process that starts on an idle host can
/// get one effective CPU for about a second. Gives up after 5 s.
/// Returns the seconds the warm-up took.
inline double warm_host() {
  using Clock = std::chrono::steady_clock;
  constexpr double kMaxSeconds = 5.0;
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < cpus; ++i) {
    spinners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  const auto start = Clock::now();
  const auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  for (;;) {
    const std::clock_t cpu0 = std::clock();  // process CPU time, all threads
    const auto window = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const double busy =
        static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC / since(window);
    if (busy >= 0.9 * cpus || since(start) >= kMaxSeconds) break;
  }
  stop.store(true);
  for (std::thread& t : spinners) t.join();
  return since(start);
}

inline workload::PhysicsParams physics_for(const storage::StorageModel& store) {
  workload::PhysicsParams p;
  p.store = store;
  return p;
}

struct RunOutcome {
  double jct = 0.0;
  double cost = 0.0;
  double sched_seconds = 0.0;
  double model_build_seconds = 0.0;
};

/// Full pipeline, averaged over `seeds` simulator seeds. When `faults`
/// is non-null the simulated runs replay that fault spec (with
/// speculation armed), so benches can measure JCT under chaos.
inline RunOutcome run_query(workload::QueryId q, int scale_factor,
                            const storage::StorageModel& store, scheduler::Scheduler& sched,
                            Objective objective, const cluster::SlotDistributionSpec& spec,
                            int seeds = 3, const faults::FaultSpec* faults = nullptr) {
  const JobDag truth = workload::build_query(q, scale_factor, physics_for(store));
  auto cl = cluster::Cluster::paper_testbed(spec);
  RunOutcome out;
  for (int i = 0; i < seeds; ++i) {
    sim::SimOptions opts;
    opts.seed = 1 + static_cast<std::uint64_t>(i);
    if (faults != nullptr) {
      opts.faults = *faults;
      opts.resilience.speculation_factor = 2.0;
    }
    const auto r = sim::run_experiment(truth, cl, sched, objective, store, opts);
    if (!r.ok()) {
      std::fprintf(stderr, "run_query failed: %s\n", r.status().to_string().c_str());
      return out;
    }
    out.jct += r->sim.jct;
    out.cost += r->sim.cost.total();
    out.sched_seconds += r->plan.scheduling_seconds;
    out.model_build_seconds += r->profile.model_build_seconds;
  }
  out.jct /= seeds;
  out.cost /= seeds;
  out.sched_seconds /= seeds;
  out.model_build_seconds /= seeds;
  return out;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_rule() {
  std::printf("------------------------------------------------------------------\n");
}

}  // namespace ditto::bench
