// Property suite for the Contraction Hierarchies engine: on randomized
// generator networks (grid / jittered city / radial / one-way-heavy
// variants), CH distances must equal NodeDistanceOracle exactly —
// unreachable pairs, bounded early-exit and the bucket one-to-many batch
// included. A concurrency section shares one engine across threads (TSan
// coverage).
#include "roadnet/ch_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "roadnet/builder.h"
#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"

namespace neat::roadnet {
namespace {

struct NamedNet {
  const char* name;
  RoadNetwork net;
};

std::vector<NamedNet> test_networks() {
  std::vector<NamedNet> nets;
  nets.push_back({"grid12", make_grid(12, 12, 150.0)});
  CityParams city;
  city.rows = 14;
  city.cols = 14;
  city.seed = 3;
  nets.push_back({"city-seed3", make_city(city)});
  city.seed = 7;
  city.diagonal_probability = 0.1;
  city.anti_diagonals = true;
  nets.push_back({"city-diagonals", make_city(city)});
  city.seed = 9;
  city.oneway_probability = 0.4;  // one-way flags must not change the metric
  nets.push_back({"city-oneway", make_city(city)});
  RadialCityParams radial;
  radial.rings = 6;
  radial.spokes = 9;
  radial.seed = 5;
  nets.push_back({"radial", make_radial_city(radial)});
  return nets;
}

NodeId random_node(Rng& rng, const RoadNetwork& net) {
  return NodeId(static_cast<std::int32_t>(rng.index(net.node_count())));
}

TEST(ChEngine, MatchesOracleOnGeneratorNetworks) {
  for (const NamedNet& t : test_networks()) {
    const ChEngine ch(t.net);
    ChEngine::Query query(ch);
    NodeDistanceOracle oracle(t.net);
    Rng rng(1234);
    for (int i = 0; i < 200; ++i) {
      const NodeId s = random_node(rng, t.net);
      const NodeId u = random_node(rng, t.net);
      EXPECT_DOUBLE_EQ(query.distance(s, u), oracle.distance(s, u))
          << t.name << " " << s << " -> " << u;
    }
  }
}

TEST(ChEngine, UnreachablePairsAreInfiniteLikeTheOracle) {
  // Two disconnected components.
  RoadNetworkBuilder b;
  b.add_node({0.0, 0.0});
  b.add_node({100.0, 0.0});
  b.add_node({0.0, 500.0});
  b.add_node({100.0, 500.0});
  b.add_segment(NodeId(0), NodeId(1), 13.9);
  b.add_segment(NodeId(2), NodeId(3), 13.9);
  const RoadNetwork net = b.build();
  const ChEngine ch(net);
  ChEngine::Query query(ch);
  NodeDistanceOracle oracle(net);
  EXPECT_EQ(query.distance(NodeId(0), NodeId(2)), kInfDistance);
  EXPECT_EQ(query.distance(NodeId(3), NodeId(1)), kInfDistance);
  EXPECT_EQ(oracle.distance(NodeId(0), NodeId(2)), kInfDistance);
  EXPECT_DOUBLE_EQ(query.distance(NodeId(0), NodeId(1)), 100.0);
  EXPECT_DOUBLE_EQ(query.distance(NodeId(2), NodeId(3)), 100.0);
}

TEST(ChEngine, BoundedQueriesKeepTheDijkstraContract) {
  const RoadNetwork net = make_grid(10, 10, 100.0);
  const ChEngine ch(net);
  ChEngine::Query query(ch);
  NodeDistanceOracle oracle(net);
  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    const NodeId s = random_node(rng, net);
    const NodeId t = random_node(rng, net);
    const double exact = oracle.distance(s, t);
    ASSERT_LT(exact, kInfDistance);
    // Bound below the distance: infinite, like the oracle.
    if (exact > 0.0) {
      EXPECT_EQ(query.distance(s, t, exact * 0.5), kInfDistance);
      EXPECT_EQ(oracle.distance(s, t, exact * 0.5), kInfDistance);
    }
    // Bound at and above the distance: exact.
    EXPECT_DOUBLE_EQ(query.distance(s, t, exact), exact);
    EXPECT_DOUBLE_EQ(query.distance(s, t, exact + 1.0), exact);
  }
}

TEST(ChEngine, ManyToManyMatchesRepeatedSinglePairs) {
  for (const NamedNet& t : test_networks()) {
    const ChEngine ch(t.net);
    ChEngine::Query batch(ch);
    ChEngine::Query single(ch);
    Rng rng(4321);
    for (int round = 0; round < 10; ++round) {
      const NodeId s = random_node(rng, t.net);
      std::vector<NodeId> targets;
      for (int k = 0; k < 10; ++k) targets.push_back(random_node(rng, t.net));
      const double bound = (round % 2 == 0) ? kInfDistance : 900.0;
      std::vector<double> out(targets.size());
      batch.distances(s, targets, out, bound);
      for (std::size_t k = 0; k < targets.size(); ++k) {
        EXPECT_DOUBLE_EQ(out[k], single.distance(s, targets[k], bound))
            << t.name << " target " << k;
      }
    }
  }
}

TEST(ChEngine, SettlesFarFewerNodesThanDijkstra) {
  const RoadNetwork net = make_grid(30, 30, 100.0);
  const ChEngine ch(net);
  ChEngine::Query query(ch);
  NodeDistanceOracle oracle(net);
  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const NodeId s = random_node(rng, net);
    const NodeId t = random_node(rng, net);
    EXPECT_DOUBLE_EQ(query.distance(s, t), oracle.distance(s, t));
  }
  EXPECT_EQ(query.computations(), oracle.computations());
  EXPECT_LT(query.settled_nodes() * 2, oracle.settled_nodes());
  query.reset_counters();
  EXPECT_EQ(query.settled_nodes(), 0u);
  EXPECT_EQ(query.computations(), 0u);
}

TEST(ChEngineConcurrency, SharedEngineAnswersFromManyThreads) {
  const RoadNetwork net = make_grid(15, 15, 100.0);
  const ChEngine ch(net);
  // Reference answers, computed serially.
  Rng seed_rng(99);
  constexpr int kThreads = 4;
  constexpr int kQueries = 64;
  std::vector<std::vector<NodeId>> sources(kThreads), targets(kThreads);
  std::vector<std::vector<double>> expected(kThreads);
  {
    NodeDistanceOracle oracle(net);
    for (int w = 0; w < kThreads; ++w) {
      for (int i = 0; i < kQueries; ++i) {
        sources[w].push_back(random_node(seed_rng, net));
        targets[w].push_back(random_node(seed_rng, net));
        expected[w].push_back(oracle.distance(sources[w][i], targets[w][i]));
      }
    }
  }
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(kQueries, -1.0));
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      ChEngine::Query query(ch);  // per-thread workspace over the shared engine
      for (int i = 0; i < kQueries; ++i) {
        got[w][i] = query.distance(sources[w][i], targets[w][i]);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (int w = 0; w < kThreads; ++w) {
    for (int i = 0; i < kQueries; ++i) {
      EXPECT_DOUBLE_EQ(got[w][i], expected[w][i]) << "thread " << w << " query " << i;
    }
  }
}

}  // namespace
}  // namespace neat::roadnet
