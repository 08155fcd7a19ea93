// Metamorphic tests for the Phase 3 acceleration layer: transformations that
// must not change the clustering.
//  * Thread count: Refiner at 1, 2 and 8 refine threads reproduces the
//    serial run bit-for-bit (clusters AND instrumentation counters).
//  * Pruning: ELB and landmark pruning on/off in every combination leaves
//    the merge decisions unchanged — only pairs_evaluated / sp_computations
//    may shrink when a prune is active.
//  * Distance engine: every rung of the ladder (Dijkstra with landmarks,
//    i.e. ALT / CH / CH many-to-many table) yields identical clusters and
//    identical engine-invariant pruning counters, at 1, 2 and 8 refine
//    threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/clusterer.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"

namespace neat {
namespace {

struct Workload {
  roadnet::RoadNetwork net;
  std::vector<FlowCluster> flows;
};

// Flow clusters from a full Phases 1-2 run over a simulated city, the same
// construction the pipeline sweep uses.
Workload make_workload(int rows, int cols, std::uint64_t net_seed,
                       std::uint64_t traj_seed, int trajectories) {
  roadnet::CityParams p;
  p.rows = rows;
  p.cols = cols;
  p.seed = net_seed;
  Workload w{roadnet::make_city(p), {}};
  const sim::SimConfig scfg = sim::default_config(w.net, 3, 3);
  const traj::TrajectoryDataset data =
      sim::MobilitySimulator(w.net, scfg).generate(trajectories, traj_seed);
  Config cfg;
  cfg.mode = Mode::kFlow;
  cfg.flow.min_card = 1.0;  // keep every flow: more refiner work
  w.flows = NeatClusterer(w.net, cfg).run(data).flow_clusters;
  return w;
}

void expect_identical(const Phase3Output& a, const Phase3Output& b,
                      const char* what) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size()) << what;
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].flows, b.clusters[i].flows) << what << " cluster " << i;
    EXPECT_DOUBLE_EQ(a.clusters[i].total_route_length, b.clusters[i].total_route_length);
  }
  EXPECT_EQ(a.sp_computations, b.sp_computations) << what;
  EXPECT_EQ(a.elb_pruned_pairs, b.elb_pruned_pairs) << what;
  EXPECT_EQ(a.lm_pruned_pairs, b.lm_pruned_pairs) << what;
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated) << what;
}

void expect_same_clusters(const Phase3Output& a, const Phase3Output& b,
                          const char* what) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size()) << what;
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].flows, b.clusters[i].flows) << what << " cluster " << i;
  }
}

TEST(ParallelRefinerMetamorphic, ThreadCountNeverChangesAnything) {
  for (const std::uint64_t seed : {11u, 47u}) {
    const Workload w = make_workload(10, 10, seed, seed + 1, 60);
    ASSERT_GT(w.flows.size(), 3u);
    for (const bool landmarks : {false, true}) {
      RefineConfig cfg;
      cfg.epsilon = 500.0;
      cfg.use_landmarks = landmarks;
      const Phase3Output serial = Refiner(w.net, cfg).refine(w.flows);
      for (const unsigned threads : {1u, 2u, 8u}) {
        RefineConfig pcfg = cfg;
        pcfg.threads = threads;
        const Phase3Output parallel = Refiner(w.net, pcfg).refine(w.flows);
        expect_identical(serial, parallel,
                         landmarks ? "landmarks on" : "landmarks off");
      }
    }
  }
}

TEST(ParallelRefinerMetamorphic, DelegatesForTinyInputs) {
  const Workload w = make_workload(8, 8, 5, 6, 20);
  RefineConfig cfg;
  cfg.epsilon = 400.0;
  RefineConfig threaded = cfg;
  threaded.threads = 8;
  const Refiner pr(w.net, threaded);
  // A single flow (no pairs) and empty input never start a worker.
  const std::vector<FlowCluster> one(w.flows.begin(), w.flows.begin() + 1);
  const Phase3Output serial = Refiner(w.net, cfg).refine(one);
  expect_identical(serial, pr.refine(one), "single flow");
  EXPECT_TRUE(pr.refine({}).clusters.empty());
}

TEST(PruningMetamorphic, PruningNeverChangesMergeDecisions) {
  const Workload w = make_workload(10, 10, 23, 29, 60);
  ASSERT_GT(w.flows.size(), 3u);

  RefineConfig none;
  none.epsilon = 500.0;
  none.use_elb = false;
  none.use_landmarks = false;
  const Phase3Output base = Refiner(w.net, none).refine(w.flows);
  EXPECT_EQ(base.elb_pruned_pairs, 0u);
  EXPECT_EQ(base.lm_pruned_pairs, 0u);
  const std::size_t all_pairs = w.flows.size() * (w.flows.size() - 1) / 2;
  EXPECT_EQ(base.pairs_evaluated, all_pairs);

  for (const bool elb : {false, true}) {
    for (const bool lm : {false, true}) {
      RefineConfig cfg = none;
      cfg.use_elb = elb;
      cfg.use_landmarks = lm;
      const Phase3Output out = Refiner(w.net, cfg).refine(w.flows);
      expect_same_clusters(base, out, "prune combination");
      // Every pair is either pruned or evaluated; nothing is dropped.
      EXPECT_EQ(out.pairs_evaluated + out.elb_pruned_pairs + out.lm_pruned_pairs,
                all_pairs);
      if (!elb) EXPECT_EQ(out.elb_pruned_pairs, 0u);
      if (!lm) EXPECT_EQ(out.lm_pruned_pairs, 0u);
      EXPECT_LE(out.pairs_evaluated, base.pairs_evaluated);
      EXPECT_LE(out.sp_computations, base.sp_computations);
    }
  }
}

TEST(PruningMetamorphic, LandmarkPruneStrictlyReducesDijkstraRunsAfterElb) {
  // On a grid network shortest paths bend, so the landmark bound must catch
  // pairs ELB misses — the Figure 7 extension this PR reports.
  const roadnet::RoadNetwork net = roadnet::make_grid(12, 12, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 3, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(80, 17);
  Config fcfg;
  fcfg.mode = Mode::kFlow;
  fcfg.flow.min_card = 1.0;
  const std::vector<FlowCluster> flows = NeatClusterer(net, fcfg).run(data).flow_clusters;
  ASSERT_GT(flows.size(), 5u);

  RefineConfig elb_only;
  elb_only.epsilon = 400.0;
  RefineConfig elb_lm = elb_only;
  elb_lm.use_landmarks = true;
  const Phase3Output a = Refiner(net, elb_only).refine(flows);
  const Phase3Output b = Refiner(net, elb_lm).refine(flows);
  expect_same_clusters(a, b, "ELB vs ELB+landmark");
  EXPECT_GT(b.lm_pruned_pairs, 0u) << "landmark bound must prune pairs ELB missed";
  EXPECT_LT(b.sp_computations, a.sp_computations)
      << "ELB+landmark must issue strictly fewer Dijkstra runs than ELB alone";
}

TEST(PruningMetamorphic, BoundedSearchesMatchUnbounded) {
  const Workload w = make_workload(9, 9, 71, 73, 50);
  RefineConfig bounded;
  bounded.epsilon = 450.0;
  RefineConfig unbounded = bounded;
  unbounded.bound_searches_at_epsilon = false;
  const Phase3Output a = Refiner(w.net, bounded).refine(w.flows);
  const Phase3Output b = Refiner(w.net, unbounded).refine(w.flows);
  expect_same_clusters(a, b, "bounded vs unbounded");
}

TEST(DistanceEngineMetamorphic, EngineAndThreadCountNeverChangeClusters) {
  // The ladder contract across both axes at once: swapping the distance
  // engine must never change the clustering, and within one engine the
  // thread count must never change the counters either. The prune decisions
  // (ELB, landmark) run before any engine touches a pair, so
  // elb/lm_pruned/pairs_evaluated are engine-invariant; sp_computations and
  // settled_nodes are work proxies with engine-specific units (the table
  // rung counts bucket fills, not searches) and are only compared within an
  // engine.
  const Workload w = make_workload(10, 10, 83, 89, 60);
  ASSERT_GT(w.flows.size(), 3u);

  RefineConfig base;
  base.epsilon = 500.0;
  base.use_landmarks = true;
  const Phase3Output reference = Refiner(w.net, base).refine(w.flows);

  // base.use_landmarks is on, so the kDijkstra rung runs as ALT.
  for (const DistanceEngine engine :
       {DistanceEngine::kDijkstra, DistanceEngine::kCh, DistanceEngine::kChTable}) {
    RefineConfig cfg = base;
    cfg.distance_engine = engine;
    const Phase3Output serial = Refiner(w.net, cfg).refine(w.flows);
    const char* what = engine == DistanceEngine::kChTable ? "ch-table" : "engine";
    expect_same_clusters(reference, serial, what);
    EXPECT_EQ(serial.elb_pruned_pairs, reference.elb_pruned_pairs) << what;
    EXPECT_EQ(serial.lm_pruned_pairs, reference.lm_pruned_pairs) << what;
    EXPECT_EQ(serial.pairs_evaluated, reference.pairs_evaluated) << what;

    for (const unsigned threads : {1u, 2u, 8u}) {
      RefineConfig pcfg = cfg;
      pcfg.threads = threads;
      const Phase3Output parallel = Refiner(w.net, pcfg).refine(w.flows);
      expect_same_clusters(serial, parallel, what);
      EXPECT_EQ(parallel.sp_computations, serial.sp_computations) << what;
      EXPECT_EQ(parallel.elb_pruned_pairs, serial.elb_pruned_pairs) << what;
      EXPECT_EQ(parallel.lm_pruned_pairs, serial.lm_pruned_pairs) << what;
      EXPECT_EQ(parallel.pairs_evaluated, serial.pairs_evaluated) << what;
      // settled_nodes depends on which worker's memoized label cache each
      // chunk lands in for the hub-label engines; it is thread-invariant
      // only for the per-pair-independent rungs.
      if (engine == DistanceEngine::kDijkstra) {
        EXPECT_EQ(parallel.settled_nodes, serial.settled_nodes) << what;
      } else {
        EXPECT_GT(parallel.settled_nodes, 0u) << what;
      }
    }
  }
}

TEST(ClustererWiring, RefineThreadsProduceIdenticalResults) {
  roadnet::CityParams p;
  p.rows = 9;
  p.cols = 9;
  p.seed = 31;
  const roadnet::RoadNetwork net = roadnet::make_city(p);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(50, 37);

  Config serial;
  serial.refine.use_landmarks = true;
  Config threaded = serial;
  threaded.refine.threads = 8;
  const Result a = NeatClusterer(net, serial).run(data);
  const Result b = NeatClusterer(net, threaded).run(data);
  ASSERT_EQ(a.final_clusters.size(), b.final_clusters.size());
  for (std::size_t i = 0; i < a.final_clusters.size(); ++i) {
    EXPECT_EQ(a.final_clusters[i].flows, b.final_clusters[i].flows);
  }
  EXPECT_EQ(a.sp_computations, b.sp_computations);
  EXPECT_EQ(a.lm_pruned_pairs, b.lm_pruned_pairs);
}

}  // namespace
}  // namespace neat
