// Design-choice ablations beyond the paper's Fig. 12, covering the
// decisions called out in DESIGN.md §4:
//   1. gather decomposition of stage groups (paper §4.5, Fig. 7)
//   2. the Figure-2 "shrink oversized groups" fallback + multi-start
//   3. the monotone objective guard
//   4. sqrt-alpha intra-path ratio vs linear-in-data allocation
//      (NIMBLE+DoP vs NIMBLE in Fig. 12 covers this; here we isolate
//      it on a pure chain where the closed form is exact)
#include "bench_common.h"
#include "workload/micro.h"
#include "workload/pipelining.h"

using namespace ditto;
using namespace ditto::bench;

namespace {

double run_with_options(const JobDag& truth, const cluster::Cluster& cl,
                        scheduler::DittoOptions options) {
  scheduler::DittoScheduler sched(options);
  double jct = 0.0;
  for (int i = 0; i < 3; ++i) {
    sim::SimOptions opts;
    opts.seed = 1 + static_cast<std::uint64_t>(i);
    const auto r =
        sim::run_experiment(truth, cl, sched, Objective::kJct, storage::s3_model(), opts);
    if (!r.ok()) return -1.0;
    jct += r->sim.jct;
  }
  return jct / 3;
}

}  // namespace

int main() {
  const auto s3 = storage::s3_model();

  print_header("Ablation: Figure-2 shrink fallback / multi-start (Q95, Zipf-0.9)");
  {
    const JobDag truth = workload::build_query(workload::QueryId::kQ95, 1000, physics_for(s3));
    auto cl = cluster::Cluster::paper_testbed(cluster::zipf_0_9());
    scheduler::DittoOptions off;
    off.shrink_oversized_groups = false;
    scheduler::DittoOptions on;
    std::printf("  joint loop only (Algorithm 3):       %8.1f s\n",
                run_with_options(truth, cl, off));
    std::printf("  + shrink fallback and multi-start:   %8.1f s\n",
                run_with_options(truth, cl, on));
  }

  print_header("Ablation: monotone objective guard (Q94, Zipf-0.99)");
  {
    const JobDag truth = workload::build_query(workload::QueryId::kQ94, 1000, physics_for(s3));
    auto cl = cluster::Cluster::paper_testbed(cluster::zipf_0_99());
    scheduler::DittoOptions guarded;
    scheduler::DittoOptions unguarded;
    unguarded.enforce_monotone = false;
    std::printf("  guard on  (reject regressions):      %8.1f s\n",
                run_with_options(truth, cl, guarded));
    std::printf("  guard off (accept any grouping):     %8.1f s\n",
                run_with_options(truth, cl, unguarded));
  }

  print_header("Ablation: gather decomposition (Q95's final gather edge)");
  {
    // With the gather edge intact the final group can decompose into
    // task groups; rewriting it as a shuffle forces atomic placement.
    JobDag with_gather = workload::build_query(workload::QueryId::kQ95, 1000, physics_for(s3));
    JobDag no_gather = with_gather;
    for (const Edge& e : with_gather.edges()) {
      if (e.exchange == ExchangeKind::kGather) {
        no_gather.edge_between(e.src, e.dst).exchange = ExchangeKind::kShuffle;
      }
    }
    auto cl = cluster::Cluster::paper_testbed(cluster::zipf_0_9());
    std::printf("  gather (decomposable groups):        %8.1f s\n",
                run_with_options(with_gather, cl, {}));
    std::printf("  shuffle (atomic groups):             %8.1f s\n",
                run_with_options(no_gather, cl, {}));
  }

  print_header("Ablation: storage backends (Q1 SF=100, Zipf-0.9, Ditto)");
  {
    auto cl = cluster::Cluster::paper_testbed(cluster::zipf_0_9());
    struct Backend {
      const char* name;
      workload::PhysicsParams physics;
      storage::StorageModel external;
    };
    std::vector<Backend> backends;
    backends.push_back({"S3 only", physics_for(storage::s3_model()), storage::s3_model()});
    {
      workload::PhysicsParams tiered = physics_for(storage::s3_model());
      tiered.use_fast_store = true;
      tiered.fast_store = storage::redis_model();
      tiered.fast_threshold = 256_MB;
      backends.push_back({"tiered (Redis < 256MB, else S3)", tiered, storage::s3_model()});
    }
    backends.push_back(
        {"Redis only", physics_for(storage::redis_model()), storage::redis_model()});
    backends.push_back({"direct network (Knative-style)",
                        physics_for(storage::direct_network_model()),
                        storage::direct_network_model()});
    for (const Backend& b : backends) {
      const JobDag truth = workload::build_query(workload::QueryId::kQ1, 100, b.physics);
      scheduler::DittoScheduler sched;
      double jct = 0.0;
      for (int i = 0; i < 3; ++i) {
        sim::SimOptions opts;
        opts.seed = 1 + static_cast<std::uint64_t>(i);
        jct += sim::run_experiment(truth, cl, sched, Objective::kJct, b.external, opts)
                   ->sim.jct;
      }
      std::printf("  %-34s %8.2f s\n", b.name, jct / 3);
    }
  }

  print_header("Ablation: pipelined execution (paper 4.5, Q16 Zipf-0.9)");
  {
    JobDag plain = workload::build_query(workload::QueryId::kQ16, 1000, physics_for(s3));
    JobDag piped = plain;
    const int annotated = workload::pipeline_all_shuffles(piped);
    auto cl = cluster::Cluster::paper_testbed(cluster::zipf_0_9());
    std::printf("  no pipelining:                       %8.1f s\n",
                run_with_options(plain, cl, {}));
    std::printf("  %d shuffle edges pipelined:           %8.1f s\n", annotated,
                run_with_options(piped, cl, {}));
  }

  print_header("Ablation: sqrt-alpha vs data-proportional DoP on a pure chain");
  {
    const JobDag truth = workload::chain_dag(6, 80_GB, 0.4, physics_for(s3));
    auto cl = cluster::Cluster::uniform(8, 32);
    scheduler::NimbleScheduler nimble;         // data-proportional
    scheduler::NimblePlusDopScheduler sqrt_a;  // sqrt-alpha ratios
    double jn = 0.0, js = 0.0;
    for (int i = 0; i < 3; ++i) {
      sim::SimOptions opts;
      opts.seed = 1 + static_cast<std::uint64_t>(i);
      jn += sim::run_experiment(truth, cl, nimble, Objective::kJct, s3, opts)->sim.jct;
      js += sim::run_experiment(truth, cl, sqrt_a, Objective::kJct, s3, opts)->sim.jct;
    }
    std::printf("  data-proportional (NIMBLE):          %8.1f s\n", jn / 3);
    std::printf("  sqrt-alpha ratios (Ditto's rule):    %8.1f s\n", js / 3);
  }
  return 0;
}
