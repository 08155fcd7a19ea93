// Tests for shortest-path machinery: correctness against Floyd–Warshall on
// random graphs (property sweep), route reconstruction, bounds, SSSP trees.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/rng.h"
#include "roadnet/builder.h"
#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"
#include "test_util.h"

namespace neat::roadnet {
namespace {

TEST(NodeDistance, LineNetwork) {
  const RoadNetwork net = testutil::line_network(4);  // 4 segments of 100 m
  EXPECT_DOUBLE_EQ(node_distance(net, NodeId(0), NodeId(4)), 400.0);
  EXPECT_DOUBLE_EQ(node_distance(net, NodeId(2), NodeId(2)), 0.0);
  EXPECT_DOUBLE_EQ(node_distance(net, NodeId(4), NodeId(0)), 400.0);  // symmetric
}

TEST(NodeDistance, BoundCutsSearch) {
  const RoadNetwork net = testutil::line_network(10);
  EXPECT_DOUBLE_EQ(node_distance(net, NodeId(0), NodeId(10), 1000.0), 1000.0);
  EXPECT_EQ(node_distance(net, NodeId(0), NodeId(10), 999.0), kInfDistance);
}

TEST(NodeDistance, DisconnectedIsInfinite) {
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  const NodeId d = b.add_node({500, 0});
  const NodeId e = b.add_node({600, 0});
  b.add_segment(a, c, 10.0);
  b.add_segment(d, e, 10.0);
  const RoadNetwork net = b.build();
  EXPECT_EQ(node_distance(net, a, d), kInfDistance);
}

TEST(NodeDistance, IgnoresOneWayRestrictions) {
  // The Phase 3 metric treats the graph as undirected (paper §III-C.3).
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  b.add_segment(a, c, 10.0, /*bidirectional=*/false);
  const RoadNetwork net = b.build();
  EXPECT_DOUBLE_EQ(node_distance(net, c, a), 100.0);
}

TEST(NodeDistanceOracle, ReusableAndCounts) {
  const RoadNetwork net = testutil::line_network(5);
  NodeDistanceOracle oracle(net);
  EXPECT_DOUBLE_EQ(oracle.distance(NodeId(0), NodeId(5)), 500.0);
  EXPECT_DOUBLE_EQ(oracle.distance(NodeId(5), NodeId(1)), 400.0);
  EXPECT_DOUBLE_EQ(oracle.distance(NodeId(2), NodeId(2)), 0.0);
  EXPECT_EQ(oracle.computations(), 3u);
  oracle.reset_counters();
  EXPECT_EQ(oracle.computations(), 0u);
}

TEST(NodeDistanceOracle, EmptyTargetSetIsInfiniteAndFree) {
  const RoadNetwork net = testutil::line_network(5);
  NodeDistanceOracle oracle(net);
  EXPECT_TRUE(std::isinf(oracle.distance_to_any(NodeId(0), {})));
  EXPECT_EQ(oracle.computations(), 0u) << "no Dijkstra run for an empty target set";
  EXPECT_EQ(oracle.settled_nodes(), 0u);
  std::span<double> empty_out;
  oracle.distances(NodeId(0), {}, empty_out);
  EXPECT_EQ(oracle.computations(), 0u);
}

TEST(NodeDistanceOracle, BatchedDistancesFillAllTargets) {
  const RoadNetwork net = testutil::line_network(5);
  NodeDistanceOracle oracle(net);
  const std::vector<NodeId> targets{NodeId(1), NodeId(4), NodeId(0)};
  std::vector<double> out(targets.size());
  oracle.distances(NodeId(0), targets, out);
  EXPECT_EQ(oracle.computations(), 1u) << "the whole batch is one search";
  EXPECT_DOUBLE_EQ(out[0], 100.0);
  EXPECT_DOUBLE_EQ(out[1], 400.0);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
  // Bounded batch: unreachable-within-bound targets report +inf, close ones
  // stay exact.
  oracle.distances(NodeId(0), targets, out, 150.0);
  EXPECT_DOUBLE_EQ(out[0], 100.0);
  EXPECT_TRUE(std::isinf(out[1]));
  EXPECT_DOUBLE_EQ(out[2], 0.0);
}

// Property: oracle distances match Floyd–Warshall on random connected
// networks, across several seeds.
class DijkstraVsFloydWarshall : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraVsFloydWarshall, AllPairsAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  RoadNetworkBuilder b;
  const int n = 14;
  std::vector<NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(b.add_node({rng.uniform(0, 1000), rng.uniform(0, 1000)}));
  }
  // Random spanning chain + extra chords keeps it connected.
  for (int i = 1; i < n; ++i) b.add_segment(nodes[i - 1], nodes[i], 10.0);
  for (int k = 0; k < n; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    if (i != j) {
      // Parallel edges and chords are all fine.
      const double straight = distance(b.node_pos(nodes[i]), b.node_pos(nodes[j]));
      if (straight > 0.0) b.add_segment(nodes[i], nodes[j], 10.0, true, straight * 1.25);
    }
  }
  const RoadNetwork net = b.build();

  // Floyd–Warshall reference over the undirected segment weights.
  const double inf = kInfDistance;
  std::vector<std::vector<double>> d(static_cast<std::size_t>(n),
                                     std::vector<double>(static_cast<std::size_t>(n), inf));
  for (int i = 0; i < n; ++i) d[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 0.0;
  for (const Segment& s : net.segments()) {
    const auto i = static_cast<std::size_t>(s.a.value());
    const auto j = static_cast<std::size_t>(s.b.value());
    d[i][j] = std::min(d[i][j], s.length);
    d[j][i] = std::min(d[j][i], s.length);
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const auto [ki, ii, ji] = std::tuple{static_cast<std::size_t>(k),
                                             static_cast<std::size_t>(i),
                                             static_cast<std::size_t>(j)};
        d[ii][ji] = std::min(d[ii][ji], d[ii][ki] + d[ki][ji]);
      }
    }
  }

  NodeDistanceOracle oracle(net);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(oracle.distance(NodeId(i), NodeId(j)),
                  d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1e-6)
          << "pair (" << i << ", " << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsFloydWarshall, ::testing::Range(0, 8));

TEST(ShortestNodePath, ReconstructsPath) {
  const RoadNetwork net = testutil::line_network(4);
  const auto path = shortest_node_path(net, NodeId(0), NodeId(3));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{NodeId(0), NodeId(1), NodeId(2), NodeId(3)}));
  const auto self = shortest_node_path(net, NodeId(2), NodeId(2));
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(*self, std::vector<NodeId>{NodeId(2)});
}

TEST(ShortestRoute, RespectsOneWay) {
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  const NodeId d = b.add_node({100, 100});
  b.add_segment(a, c, 10.0, /*bidirectional=*/false);
  b.add_segment(c, d, 10.0);
  b.add_segment(d, a, 10.0);
  const RoadNetwork net = b.build();
  // a -> c is direct.
  const auto fwd = shortest_route(net, a, c, Metric::kDistance);
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(fwd->edges.size(), 1u);
  EXPECT_DOUBLE_EQ(fwd->length, 100.0);
  // c -> a must detour via d (one-way against us).
  const auto bwd = shortest_route(net, c, a, Metric::kDistance);
  ASSERT_TRUE(bwd.has_value());
  EXPECT_EQ(bwd->edges.size(), 2u);
  EXPECT_NEAR(bwd->length, 100.0 + distance({100, 100}, {0, 0}), 1e-9);
}

TEST(ShortestRoute, TravelTimeMetricPrefersFastRoad) {
  // Two routes a -> c: direct slow 100 m at 5 m/s (20 s) or detour 140 m at
  // 20 m/s (7 s). Distance metric picks the direct, time metric the detour.
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  const NodeId mid = b.add_node({50, 50});
  b.add_segment(a, c, 5.0);
  b.add_segment(a, mid, 20.0);
  b.add_segment(mid, c, 20.0);
  const RoadNetwork net = b.build();

  const auto by_dist = shortest_route(net, a, c, Metric::kDistance);
  ASSERT_TRUE(by_dist.has_value());
  EXPECT_EQ(by_dist->edges.size(), 1u);

  const auto by_time = shortest_route(net, a, c, Metric::kTravelTime);
  ASSERT_TRUE(by_time.has_value());
  EXPECT_EQ(by_time->edges.size(), 2u);
  EXPECT_NEAR(by_time->travel_time, 2.0 * distance({0, 0}, {50, 50}) / 20.0, 1e-9);
}

TEST(ShortestRoute, MaxCostBound) {
  const RoadNetwork net = testutil::line_network(10);
  EXPECT_TRUE(shortest_route(net, NodeId(0), NodeId(9), Metric::kDistance, 900.0).has_value());
  EXPECT_FALSE(shortest_route(net, NodeId(0), NodeId(9), Metric::kDistance, 800.0).has_value());
}

TEST(ShortestRoute, NodePathMatchesEdges) {
  const RoadNetwork net = testutil::line_network(3);
  const auto route = shortest_route(net, NodeId(0), NodeId(3), Metric::kDistance);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->node_path(net),
            (std::vector<NodeId>{NodeId(0), NodeId(1), NodeId(2), NodeId(3)}));
}

TEST(ReverseSsspTree, MatchesPointQueriesAroundAOneWaySegment) {
  // A 4x4 grid of 100 m blocks whose first segment, 0 -> 1, is one-way:
  // leaving node 1 toward node 0 must detour 1 -> 5 -> 4 -> 0.
  RoadNetworkBuilder b;
  constexpr int kSide = 4;
  for (int r = 0; r < kSide; ++r) {
    for (int c = 0; c < kSide; ++c) b.add_node({c * 100.0, r * 100.0});
  }
  const auto at = [](int r, int c) { return NodeId(r * kSide + c); };
  for (int r = 0; r < kSide; ++r) {
    for (int c = 0; c < kSide; ++c) {
      if (c + 1 < kSide) b.add_segment(at(r, c), at(r, c + 1), 10.0, r != 0 || c != 0);
      if (r + 1 < kSide) b.add_segment(at(r, c), at(r + 1, c), 10.0);
    }
  }
  const RoadNetwork net = b.build();
  const NodeId target = at(0, 0);
  const ReverseSsspTree tree(net, target, Metric::kDistance);
  EXPECT_EQ(tree.target(), target);
  EXPECT_DOUBLE_EQ(tree.cost_from(at(0, 1)), 300.0);
  for (int s = 0; s < kSide * kSide; ++s) {
    const auto route = shortest_route(net, NodeId(s), target, Metric::kDistance);
    ASSERT_TRUE(route.has_value()) << s;
    EXPECT_TRUE(tree.reachable_from(NodeId(s))) << s;
    EXPECT_NEAR(tree.cost_from(NodeId(s)), route->length, 1e-9) << s;
    const auto tree_route = tree.route_from(NodeId(s));
    ASSERT_TRUE(tree_route.has_value()) << s;
    EXPECT_NEAR(tree_route->length, route->length, 1e-9) << s;
    EXPECT_NEAR(tree_route->travel_time, route->travel_time, 1e-9) << s;
    // The directed edges chain from the origin to the target.
    NodeId cur(s);
    for (const EdgeId eid : tree_route->edges) {
      EXPECT_EQ(net.edge(eid).from, cur) << s;
      cur = net.edge(eid).to;
    }
    EXPECT_EQ(cur, target) << s;
  }
}

TEST(ReverseSsspTree, UnreachableOriginReported) {
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  const NodeId d = b.add_node({500, 0});
  const NodeId e = b.add_node({600, 0});
  b.add_segment(a, c, 10.0);
  b.add_segment(d, e, 10.0);
  const RoadNetwork net = b.build();
  const ReverseSsspTree tree(net, a, Metric::kDistance);
  EXPECT_TRUE(tree.reachable_from(c));
  EXPECT_DOUBLE_EQ(tree.cost_from(c), 100.0);
  EXPECT_FALSE(tree.reachable_from(d));
  EXPECT_EQ(tree.cost_from(d), kInfDistance);
  EXPECT_FALSE(tree.route_from(d).has_value());
}

// Property: on grids, network distance equals Manhattan distance (times
// spacing), and the Euclidean lower bound holds for every sampled pair.
class GridDistanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(GridDistanceProperty, ManhattanAndElb) {
  const int cols = 7;
  const RoadNetwork net = make_grid(6, cols, 50.0);
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 99);
  NodeDistanceOracle oracle(net);
  for (int k = 0; k < 40; ++k) {
    const auto i = static_cast<std::int32_t>(rng.uniform_int(0, 41));
    const auto j = static_cast<std::int32_t>(rng.uniform_int(0, 41));
    const int ri = i / cols;
    const int ci = i % cols;
    const int rj = j / cols;
    const int cj = j % cols;
    const double expected = 50.0 * (std::abs(ri - rj) + std::abs(ci - cj));
    const double dn = oracle.distance(NodeId(i), NodeId(j));
    EXPECT_NEAR(dn, expected, 1e-9);
    const double de = distance(net.node(NodeId(i)).pos, net.node(NodeId(j)).pos);
    EXPECT_LE(de, dn + 1e-9) << "ELB must hold";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridDistanceProperty, ::testing::Range(0, 5));

}  // namespace
}  // namespace neat::roadnet
