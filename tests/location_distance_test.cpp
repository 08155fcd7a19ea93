// Tests for multi-target oracle queries and on-segment location distances.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "roadnet/builder.h"
#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"
#include "test_util.h"

namespace neat::roadnet {
namespace {

TEST(DistanceToAny, PicksClosestTarget) {
  const RoadNetwork net = testutil::line_network(10);
  NodeDistanceOracle oracle(net);
  const std::vector<NodeId> targets{NodeId(3), NodeId(8)};
  EXPECT_DOUBLE_EQ(oracle.distance_to_any(NodeId(0), targets), 300.0);
  EXPECT_DOUBLE_EQ(oracle.distance_to_any(NodeId(10), targets), 200.0);
  EXPECT_DOUBLE_EQ(oracle.distance_to_any(NodeId(5), targets), 200.0);
  EXPECT_DOUBLE_EQ(oracle.distance_to_any(NodeId(3), targets), 0.0);
}

TEST(DistanceToAny, EmptyTargetsAndBound) {
  const RoadNetwork net = testutil::line_network(10);
  NodeDistanceOracle oracle(net);
  EXPECT_EQ(oracle.distance_to_any(NodeId(0), {}), kInfDistance);
  const std::vector<NodeId> targets{NodeId(9)};
  EXPECT_EQ(oracle.distance_to_any(NodeId(0), targets, 800.0), kInfDistance);
  EXPECT_DOUBLE_EQ(oracle.distance_to_any(NodeId(0), targets, 900.0), 900.0);
}

TEST(DistanceToAny, MatchesMinOfSingleQueries) {
  const RoadNetwork net = make_grid(7, 7, 90.0);
  NodeDistanceOracle oracle(net);
  Rng rng(11);
  for (int k = 0; k < 20; ++k) {
    const auto s = NodeId(static_cast<std::int32_t>(rng.uniform_int(0, 48)));
    std::vector<NodeId> targets;
    for (int i = 0; i < 4; ++i) {
      targets.push_back(NodeId(static_cast<std::int32_t>(rng.uniform_int(0, 48))));
    }
    double want = kInfDistance;
    for (const NodeId t : targets) want = std::min(want, oracle.distance(s, t));
    EXPECT_NEAR(oracle.distance_to_any(s, targets), want, 1e-9);
  }
}

TEST(LocationDistance, SameSegment) {
  const RoadNetwork net = testutil::line_network(3);
  EXPECT_DOUBLE_EQ(
      location_distance(net, {SegmentId(1), 20.0}, {SegmentId(1), 70.0}), 50.0);
  EXPECT_DOUBLE_EQ(
      location_distance(net, {SegmentId(1), 70.0}, {SegmentId(1), 20.0}), 50.0);
  EXPECT_DOUBLE_EQ(
      location_distance(net, {SegmentId(1), 30.0}, {SegmentId(1), 30.0}), 0.0);
}

TEST(LocationDistance, AcrossSegments) {
  // Line of 100 m segments: location at offset 80 on segment 0 and offset
  // 30 on segment 2 are 20 + 100 + 30 = 150 m apart.
  const RoadNetwork net = testutil::line_network(4);
  EXPECT_DOUBLE_EQ(
      location_distance(net, {SegmentId(0), 80.0}, {SegmentId(2), 30.0}), 150.0);
  // Adjacent segments: 80->100 on seg0 plus 0->30 on seg1 = 50.
  EXPECT_DOUBLE_EQ(
      location_distance(net, {SegmentId(0), 80.0}, {SegmentId(1), 30.0}), 50.0);
}

TEST(LocationDistance, ClampsOffsets) {
  const RoadNetwork net = testutil::line_network(4);
  EXPECT_DOUBLE_EQ(
      location_distance(net, {SegmentId(0), -10.0}, {SegmentId(0), 250.0}), 100.0);
}

TEST(LocationDistance, EuclideanLowerBoundProperty) {
  const RoadNetwork net = make_grid(8, 8, 75.0);
  NodeDistanceOracle oracle(net);
  Rng rng(77);
  const auto n_seg = static_cast<std::int64_t>(net.segment_count());
  for (int k = 0; k < 60; ++k) {
    const NetworkLocation a{SegmentId(static_cast<std::int32_t>(rng.uniform_int(0, n_seg - 1))),
                            rng.uniform(0.0, 75.0)};
    const NetworkLocation b{SegmentId(static_cast<std::int32_t>(rng.uniform_int(0, n_seg - 1))),
                            rng.uniform(0.0, 75.0)};
    const double dn = location_distance(net, a, b, oracle);
    const Point pa = net.point_on_segment(a.sid, a.offset);
    const Point pb = net.point_on_segment(b.sid, b.offset);
    EXPECT_LE(distance(pa, pb), dn + 1e-9) << "ELB must hold for locations";
    // Symmetry.
    EXPECT_NEAR(location_distance(net, b, a, oracle), dn, 1e-9);
  }
}

}  // namespace
}  // namespace neat::roadnet
