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
//  * Grid join: refine(), which finds its ELB candidates in a grid and
//    merges over ε-neighbour lists, reproduces the dense pair matrix
//    (fill_pair_distances + cluster_from_pair_distances) on grids whose
//    junctions sit exactly ε apart, at negative coordinates and at extreme ε.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/clusterer.h"
#include "roadnet/builder.h"
#include "roadnet/generators.h"
#include "roadnet/landmark_oracle.h"
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
      if (!elb) {
        EXPECT_EQ(out.elb_pruned_pairs, 0u);
      }
      if (!lm) {
        EXPECT_EQ(out.lm_pruned_pairs, 0u);
      }
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
  // The ladder contract across both axes at once: swapping the rung must
  // never change the clustering, and within one rung the thread count must
  // never change the counters either. The prune decisions (ELB, landmark)
  // run before any engine touches a pair, and every rung issues one search
  // per surviving leg, so at the same landmark setting the prune counters,
  // pairs_evaluated and sp_computations are engine-invariant; settled_nodes
  // is a work proxy and is only compared within a rung.
  const Workload w = make_workload(10, 10, 83, 89, 60);
  ASSERT_GT(w.flows.size(), 3u);

  RefineConfig base;
  base.epsilon = 500.0;
  base.use_landmarks = true;
  const Phase3Output reference = Refiner(w.net, base).refine(w.flows);

  struct Rung {
    const char* name;
    DistanceEngine engine;
    bool landmarks;
  };
  for (const Rung& rung : {Rung{"dijkstra", DistanceEngine::kDijkstra, false},
                           Rung{"alt", DistanceEngine::kDijkstra, true},
                           Rung{"ch", DistanceEngine::kCh, true}}) {
    RefineConfig cfg = base;
    cfg.distance_engine = rung.engine;
    cfg.use_landmarks = rung.landmarks;
    const Phase3Output serial = Refiner(w.net, cfg).refine(w.flows);
    const char* what = rung.name;
    expect_same_clusters(reference, serial, what);
    EXPECT_EQ(serial.elb_pruned_pairs, reference.elb_pruned_pairs) << what;
    if (rung.landmarks) {
      EXPECT_EQ(serial.lm_pruned_pairs, reference.lm_pruned_pairs) << what;
      EXPECT_EQ(serial.pairs_evaluated, reference.pairs_evaluated) << what;
      EXPECT_EQ(serial.sp_computations, reference.sp_computations) << what;
    } else {
      EXPECT_EQ(serial.lm_pruned_pairs, 0u) << what;
      EXPECT_EQ(serial.pairs_evaluated, reference.pairs_evaluated + reference.lm_pruned_pairs)
          << what;
    }

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
      // chunk lands in under CH; it is thread-invariant only for the
      // per-pair-independent Dijkstra searches.
      if (rung.engine == DistanceEngine::kDijkstra) {
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

// Phase 3 reads only a flow's junctions, route length and participants, so
// the grid-join oracle builds its flows directly: walks over a rows x cols
// grid of junctions `spacing` apart with its corner at `origin`. With
// `share_endpoints`, 40 random walks of 1-4 hops, a quarter of them starting
// where the previous walk ends and a quarter where it starts; without,
// disjoint one-segment hops, so every pair is at least `spacing` apart.
Workload make_grid_flows(int rows, int cols, double spacing, Point origin,
                         bool share_endpoints) {
  roadnet::RoadNetworkBuilder builder;
  const auto id = [cols](int r, int c) { return NodeId(r * cols + c); };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      builder.add_node({origin.x + c * spacing, origin.y + r * spacing});
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.add_segment(id(r, c), id(r, c + 1), 13.9);
      if (r + 1 < rows) builder.add_segment(id(r, c), id(r + 1, c), 13.9);
    }
  }
  Workload w{builder.build(), {}};
  const auto add_flow = [&](std::vector<NodeId> junctions) {
    FlowCluster f;
    f.route_length = spacing * static_cast<double>(junctions.size() - 1);
    f.junctions = std::move(junctions);
    const auto k = static_cast<std::int64_t>(w.flows.size());
    f.participants = {TrajectoryId(k % 7), TrajectoryId(100 + k)};
    w.flows.push_back(std::move(f));
  };
  if (!share_endpoints) {
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c + 1 < cols; c += 2) add_flow({id(r, c), id(r, c + 1)});
    }
    return w;
  }
  Rng rng(17);
  for (int f = 0; f < 40; ++f) {
    int r = static_cast<int>(rng.uniform_int(0, rows - 1));
    int c = static_cast<int>(rng.uniform_int(0, cols - 1));
    if (f % 4 == 1 || f % 4 == 2) {
      const NodeId from = f % 4 == 1 ? w.flows.back().end_junction()
                                     : w.flows.back().start_junction();
      r = from.value() / cols;
      c = from.value() % cols;
    }
    std::vector<NodeId> junctions{id(r, c)};
    for (std::int64_t step = rng.uniform_int(1, 4); step > 0; --step) {
      // One hop to a random in-grid neighbour.
      const std::int64_t dir = rng.uniform_int(0, 3);
      const int nr = r + (dir == 0 ? 1 : dir == 1 ? -1 : 0);
      const int nc = c + (dir == 2 ? 1 : dir == 3 ? -1 : 0);
      if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
      r = nr;
      c = nc;
      junctions.push_back(id(r, c));
    }
    if (junctions.size() < 2) junctions.push_back(id(r, c == 0 ? 1 : c - 1));
    add_flow(std::move(junctions));
  }
  return w;
}

// refine() against the dense reference evaluator: the same clusters and every
// counter except settled_nodes, at 1, 2 and 8 threads; elb_pruned_pairs also
// against a brute-force count of the ELB key, which is returned.
std::size_t expect_refine_matches_dense(const Workload& w, const RefineConfig& cfg,
                                        const std::shared_ptr<const roadnet::ChEngine>& ch,
                                        const std::shared_ptr<const roadnet::LandmarkOracle>& lm,
                                        const std::string& what) {
  const auto make_refiner = [&](const RefineConfig& c) {
    auto r = std::make_unique<Refiner>(w.net, c);
    r->set_ch_engine(ch);
    r->set_landmarks(lm);
    return r;
  };
  const std::unique_ptr<Refiner> dense_refiner = make_refiner(cfg);
  const std::size_t n = w.flows.size();
  std::vector<double> matrix(n * (n - 1) / 2);
  Phase3Output dense_counters;
  Refiner::DistanceContext ctx = dense_refiner->make_context();
  dense_refiner->fill_pair_distances(w.flows, 0, matrix.size(), ctx, matrix, dense_counters);
  const Phase3Output dense = dense_refiner->cluster_from_pair_distances(w.flows, matrix);

  std::size_t elb_pruned = 0;
  for (std::size_t i = 0; cfg.use_elb && i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double key =
          cfg.distance_mode == FlowDistanceMode::kEndpoints
              ? dense_refiner->min_euclidean_endpoint_distance(w.flows[i], w.flows[j])
              : dense_refiner->euclidean_route_hausdorff(w.flows[i], w.flows[j]);
      if (key > cfg.epsilon) ++elb_pruned;
    }
  }
  EXPECT_EQ(dense_counters.elb_pruned_pairs, elb_pruned) << what;

  for (const unsigned threads : {1u, 2u, 8u}) {
    RefineConfig tcfg = cfg;
    tcfg.threads = threads;
    const Phase3Output out = make_refiner(tcfg)->refine(w.flows);
    const std::string at = str_cat(what, " threads=", threads);
    EXPECT_EQ(out.clusters.size(), dense.clusters.size()) << at;
    for (std::size_t k = 0; k < std::min(out.clusters.size(), dense.clusters.size()); ++k) {
      EXPECT_EQ(out.clusters[k].flows, dense.clusters[k].flows) << at << " cluster " << k;
      EXPECT_EQ(out.clusters[k].participants, dense.clusters[k].participants) << at;
      EXPECT_DOUBLE_EQ(out.clusters[k].total_route_length, dense.clusters[k].total_route_length)
          << at;
    }
    EXPECT_EQ(out.elb_pruned_pairs, elb_pruned) << at;
    EXPECT_EQ(out.lm_pruned_pairs, dense_counters.lm_pruned_pairs) << at;
    EXPECT_EQ(out.pairs_evaluated, dense_counters.pairs_evaluated) << at;
    EXPECT_EQ(out.sp_computations, dense_counters.sp_computations) << at;
  }
  return elb_pruned;
}

TEST(GridJoinOracle, RefineMatchesTheDensePairMatrix) {
  constexpr double kSpacing = 100.0;
  constexpr Point kNegative{-12345.678, -98765.4321};
  enum class Candidates { kSome, kNone, kAll };  // ELB survivors
  struct Case {
    std::string name;
    Workload w;
    double epsilon;
    Candidates candidates;
  };
  std::vector<Case> cases;
  // Junctions exactly ε apart sit on cell edges; flows share endpoints.
  cases.push_back({"spacing = eps", make_grid_flows(8, 8, kSpacing, {0, 0}, true), kSpacing,
                   Candidates::kSome});
  cases.push_back({"negative coordinates", make_grid_flows(8, 8, kSpacing, kNegative, true),
                   kSpacing, Candidates::kSome});
  cases.push_back({"eps below every gap", make_grid_flows(8, 8, kSpacing, {0, 0}, false),
                   kSpacing / 2, Candidates::kNone});
  cases.push_back({"eps above the diameter", make_grid_flows(8, 8, kSpacing, kNegative, true),
                   1e6, Candidates::kAll});
  // Cells this narrow would need keys far beyond 64 bits.
  cases.push_back({"eps = 1e-300", make_grid_flows(8, 8, kSpacing, kNegative, true), 1e-300,
                   Candidates::kSome});
  cases.push_back(
      {"simulated city", make_workload(10, 10, 11, 12, 60), 500.0, Candidates::kSome});

  for (const Case& c : cases) {
    ASSERT_GT(c.w.flows.size(), 3u) << c.name;
    const std::size_t all_pairs = c.w.flows.size() * (c.w.flows.size() - 1) / 2;
    const auto ch = std::make_shared<const roadnet::ChEngine>(c.w.net);
    const auto lm = std::make_shared<const roadnet::LandmarkOracle>(c.w.net, 8);
    for (const FlowDistanceMode mode :
         {FlowDistanceMode::kEndpoints, FlowDistanceMode::kFullRoute}) {
      for (const bool elb : {true, false}) {
        for (const bool landmarks : {false, true}) {
          for (const int min_pts : {1, 3}) {
            for (const DistanceEngine engine : {DistanceEngine::kDijkstra, DistanceEngine::kCh}) {
              RefineConfig cfg;
              cfg.epsilon = c.epsilon;
              cfg.distance_mode = mode;
              cfg.use_elb = elb;
              cfg.use_landmarks = landmarks;
              cfg.min_pts = min_pts;
              cfg.distance_engine = engine;
              const std::string what =
                  str_cat(c.name, mode == FlowDistanceMode::kEndpoints ? " endpoints" : " route",
                          " elb=", elb, " lm=", landmarks, " min_pts=", min_pts,
                          " engine=", static_cast<int>(engine));
              const std::size_t pruned = expect_refine_matches_dense(c.w, cfg, ch, lm, what);
              if (elb && c.candidates == Candidates::kNone) {
                EXPECT_EQ(pruned, all_pairs) << what;
              }
              if (elb && c.candidates == Candidates::kAll) {
                EXPECT_EQ(pruned, 0u) << what;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace neat
