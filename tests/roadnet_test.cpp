// Unit tests for the road-network graph model and its NEAT primitives
// (L_n(e), I(ei, ej), segment/edge duality).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "roadnet/builder.h"
#include "roadnet/generators.h"
#include "roadnet/road_network.h"
#include "test_util.h"

namespace neat::roadnet {
namespace {

RoadNetwork two_segment_line() { return testutil::line_network(2); }

TEST(Builder, CountsAndIds) {
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  EXPECT_EQ(a.value(), 0);
  EXPECT_EQ(c.value(), 1);
  const SegmentId s = b.add_segment(a, c, 10.0);
  EXPECT_EQ(s.value(), 0);
  EXPECT_EQ(b.node_count(), 2u);
  EXPECT_EQ(b.segment_count(), 1u);
  const RoadNetwork net = b.build();
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.segment_count(), 1u);
  EXPECT_EQ(net.edge_count(), 2u);  // bidirectional -> two directed edges
}

TEST(Builder, DefaultLengthIsStraightLine) {
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({30, 40});
  b.add_segment(a, c, 10.0);
  const RoadNetwork net = b.build();
  EXPECT_DOUBLE_EQ(net.segment_length(SegmentId(0)), 50.0);
}

TEST(Builder, ExplicitLongerLengthAllowed) {
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({30, 40});
  b.add_segment(a, c, 10.0, true, 80.0);  // curvy road
  EXPECT_DOUBLE_EQ(b.build().segment_length(SegmentId(0)), 80.0);
}

TEST(Builder, RejectsInvalidInput) {
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  EXPECT_THROW(b.add_segment(a, a, 10.0), PreconditionError);         // self loop
  EXPECT_THROW(b.add_segment(a, NodeId(99), 10.0), PreconditionError);  // no such node
  EXPECT_THROW(b.add_segment(a, c, 0.0), PreconditionError);           // bad speed
  EXPECT_THROW(b.add_segment(a, c, 10.0, true, 50.0), PreconditionError);  // undercut
}

TEST(Builder, BuildEmptiesBuilder) {
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  b.add_segment(a, c, 10.0);
  (void)b.build();
  EXPECT_EQ(b.node_count(), 0u);
  EXPECT_EQ(b.segment_count(), 0u);
}

TEST(RoadNetwork, AccessorsValidateIds) {
  const RoadNetwork net = two_segment_line();
  EXPECT_THROW(static_cast<void>(net.node(NodeId(99))), NotFoundError);
  EXPECT_THROW(static_cast<void>(net.node(NodeId::invalid())), NotFoundError);
  EXPECT_THROW(static_cast<void>(net.segment(SegmentId(99))), NotFoundError);
  EXPECT_THROW(static_cast<void>(net.edge(EdgeId(99))), NotFoundError);
}

TEST(RoadNetwork, PointOnSegmentClamps) {
  const RoadNetwork net = two_segment_line();
  EXPECT_EQ(net.point_on_segment(SegmentId(0), 0.0), (Point{0, 0}));
  EXPECT_EQ(net.point_on_segment(SegmentId(0), 50.0), (Point{50, 0}));
  EXPECT_EQ(net.point_on_segment(SegmentId(0), 1e9), (Point{100, 0}));
  EXPECT_EQ(net.point_on_segment(SegmentId(0), -5.0), (Point{0, 0}));
}

TEST(RoadNetwork, ProjectToSegment) {
  const RoadNetwork net = two_segment_line();
  double dist = -1.0;
  const double offset = net.project_to_segment(SegmentId(0), {25, 30}, &dist);
  EXPECT_DOUBLE_EQ(offset, 25.0);
  EXPECT_DOUBLE_EQ(dist, 30.0);
}

TEST(RoadNetwork, SegmentsAtJunction) {
  const RoadNetwork net = two_segment_line();
  const auto star = net.segments_at(NodeId(1));  // middle junction
  EXPECT_EQ(star.size(), 2u);
  EXPECT_EQ(net.junction_degree(NodeId(1)), 2);
  EXPECT_EQ(net.junction_degree(NodeId(0)), 1);
}

TEST(RoadNetwork, AdjacentSegmentsIsLnOfPaper) {
  // Star network: L_{n2}(S1) must be {S2, S3, S4}.
  const RoadNetwork net = testutil::fig1_network();
  auto l = net.adjacent_segments(SegmentId(0), NodeId(1));
  std::sort(l.begin(), l.end());
  EXPECT_EQ(l, (std::vector<SegmentId>{SegmentId(1), SegmentId(2), SegmentId(3)}));
  // At the dead-end n1, L_{n1}(S1) is empty.
  EXPECT_TRUE(net.adjacent_segments(SegmentId(0), NodeId(0)).empty());
  // Node must be an endpoint.
  EXPECT_THROW(net.adjacent_segments(SegmentId(0), NodeId(2)), PreconditionError);
}

TEST(RoadNetwork, SharedJunctionIsIOfPaper) {
  const RoadNetwork net = testutil::fig1_network();
  EXPECT_EQ(net.shared_junction(SegmentId(0), SegmentId(1)), NodeId(1));
  EXPECT_EQ(net.shared_junction(SegmentId(2), SegmentId(3)), NodeId(1));
  EXPECT_TRUE(net.are_adjacent(SegmentId(0), SegmentId(3)));
  EXPECT_FALSE(net.shared_junction(SegmentId(0), SegmentId(0)).valid());
}

TEST(RoadNetwork, NonAdjacentSegments) {
  const RoadNetwork net = testutil::line_network(3);
  EXPECT_FALSE(net.are_adjacent(SegmentId(0), SegmentId(2)));
  EXPECT_FALSE(net.shared_junction(SegmentId(0), SegmentId(2)).valid());
}

TEST(RoadNetwork, ParallelSegmentsSharedJunctionDeterministic) {
  // Two parallel segments between the same junction pair share two nodes;
  // the smaller node id must win, deterministically.
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  b.add_segment(a, c, 10.0);
  b.add_segment(a, c, 10.0, true, 150.0);  // longer parallel road
  const RoadNetwork net = b.build();
  EXPECT_EQ(net.shared_junction(SegmentId(0), SegmentId(1)), a);
}

TEST(RoadNetwork, OtherEndpoint) {
  const RoadNetwork net = two_segment_line();
  EXPECT_EQ(net.other_endpoint(SegmentId(0), NodeId(0)), NodeId(1));
  EXPECT_EQ(net.other_endpoint(SegmentId(0), NodeId(1)), NodeId(0));
  EXPECT_THROW(static_cast<void>(net.other_endpoint(SegmentId(0), NodeId(2))), PreconditionError);
}

TEST(RoadNetwork, DirectedEdgesOfBidirectionalSegment) {
  const RoadNetwork net = two_segment_line();
  const EdgeId f = net.forward_edge(SegmentId(0));
  const EdgeId r = net.backward_edge(SegmentId(0));
  ASSERT_TRUE(f.valid());
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(net.edge(f).from, NodeId(0));
  EXPECT_EQ(net.edge(f).to, NodeId(1));
  EXPECT_EQ(net.edge(r).from, NodeId(1));
  EXPECT_EQ(net.edge(r).to, NodeId(0));
  EXPECT_EQ(net.edge(f).sid, SegmentId(0));
  EXPECT_EQ(net.edge(r).sid, SegmentId(0));
}

TEST(RoadNetwork, OneWaySegmentHasSingleEdge) {
  RoadNetworkBuilder b;
  const NodeId a = b.add_node({0, 0});
  const NodeId c = b.add_node({100, 0});
  b.add_segment(a, c, 10.0, /*bidirectional=*/false);
  const RoadNetwork net = b.build();
  EXPECT_EQ(net.edge_count(), 1u);
  EXPECT_TRUE(net.forward_edge(SegmentId(0)).valid());
  EXPECT_FALSE(net.backward_edge(SegmentId(0)).valid());
  EXPECT_TRUE(net.edge_from(SegmentId(0), a).valid());
  EXPECT_FALSE(net.edge_from(SegmentId(0), c).valid());
  EXPECT_TRUE(net.out_edges(c).empty());
}

TEST(RoadNetwork, EdgeFromNonEndpointIsInvalid) {
  const RoadNetwork net = two_segment_line();
  EXPECT_FALSE(net.edge_from(SegmentId(0), NodeId(2)).valid());
}

TEST(RoadNetwork, StatsMatchHandComputation) {
  const RoadNetwork net = testutil::fig1_network();
  const NetworkStats st = net.stats();
  EXPECT_EQ(st.num_segments, 4u);
  EXPECT_EQ(st.num_junctions, 5u);
  EXPECT_DOUBLE_EQ(st.total_length_km, 0.4);
  EXPECT_DOUBLE_EQ(st.avg_segment_length_m, 100.0);
  EXPECT_EQ(st.max_junction_degree, 4);
  EXPECT_DOUBLE_EQ(st.avg_junction_degree, 8.0 / 5.0);
}

TEST(RoadNetwork, BoundingBox) {
  const Bounds bb = testutil::fig1_network().bounding_box();
  EXPECT_EQ(bb.min, (Point{0, -100}));
  EXPECT_EQ(bb.max, (Point{200, 100}));
}

TEST(RoadNetwork, EmptyNetwork) {
  const RoadNetwork net;
  EXPECT_EQ(net.node_count(), 0u);
  EXPECT_EQ(net.segment_count(), 0u);
  const NetworkStats st = net.stats();
  EXPECT_EQ(st.num_segments, 0u);
  EXPECT_DOUBLE_EQ(st.avg_junction_degree, 0.0);
}

TEST(RoadNetwork, ConstructorValidatesParts) {
  std::vector<Node> nodes{{{0, 0}}, {{100, 0}}};
  {
    std::vector<Segment> segs{{NodeId(0), NodeId(5), 100.0, 10.0, true}};
    EXPECT_THROW(RoadNetwork(nodes, segs), PreconditionError);
  }
  {
    std::vector<Segment> segs{{NodeId(0), NodeId(1), 10.0, 10.0, true}};  // undercut
    EXPECT_THROW(RoadNetwork(nodes, segs), PreconditionError);
  }
}

/// A generated city with irregular topology added from a seeded Rng:
/// longer parallel twins of some segments (some one-way), dead-end spurs in
/// both directions, and isolated junctions with an empty star.
RoadNetwork irregular_network(std::uint64_t seed) {
  CityParams params;
  params.rows = 12;
  params.cols = 12;
  params.oneway_probability = 0.2;
  params.seed = seed;
  const RoadNetwork city = make_city(params);
  std::vector<Node> nodes = city.nodes();
  std::vector<Segment> segments = city.segments();
  Rng rng(seed);
  const std::size_t city_segments = segments.size();
  for (std::size_t k = 0; k < city_segments / 8; ++k) {
    Segment twin = segments[rng.index(city_segments)];
    twin.length *= 1.5;
    twin.bidirectional = k % 3 != 0;
    segments.push_back(twin);
  }
  const std::size_t city_nodes = nodes.size();
  for (std::size_t k = 0; k < 24; ++k) {
    const auto hub = NodeId(static_cast<std::int32_t>(rng.index(city_nodes)));
    const Point p = nodes[static_cast<std::size_t>(hub.value())].pos;
    nodes.push_back(Node{{p.x + 7.0, p.y + 5.0}});
    const auto spur = NodeId(static_cast<std::int32_t>(nodes.size() - 1));
    const bool inward = k % 4 == 1;
    segments.push_back(Segment{inward ? spur : hub, inward ? hub : spur, 12.0, 10.0, k % 2 == 0});
    if (k % 6 == 0) nodes.push_back(Node{{p.x - 9.0, p.y}});  // isolated junction
  }
  return RoadNetwork(std::move(nodes), std::move(segments));
}

TEST(RoadNetwork, FlatAdjacencyMatchesPerNodeLists) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const RoadNetwork net = irregular_network(seed);
    const std::size_t n = net.node_count();
    const auto id = [](std::size_t i) { return static_cast<std::int32_t>(i); };
    // The per-node reference: ids pushed in id order.
    std::vector<std::vector<SegmentId>> star(n);
    std::vector<std::vector<EdgeId>> out(n);
    std::vector<std::vector<EdgeId>> in(n);
    for (std::size_t i = 0; i < net.segment_count(); ++i) {
      const Segment& s = net.segments()[i];
      star[static_cast<std::size_t>(s.a.value())].push_back(SegmentId(id(i)));
      star[static_cast<std::size_t>(s.b.value())].push_back(SegmentId(id(i)));
    }
    for (std::size_t e = 0; e < net.edge_count(); ++e) {
      const DirectedEdge& d = net.edges()[e];
      out[static_cast<std::size_t>(d.from.value())].push_back(EdgeId(id(e)));
      in[static_cast<std::size_t>(d.to.value())].push_back(EdgeId(id(e)));
    }

    // The network has every irregularity the rows must survive.
    EXPECT_LT(net.edge_count(), 2 * net.segment_count()) << "one-way segments";
    const auto degree_is = [&](int d) {
      for (std::size_t v = 0; v < n; ++v) {
        if (net.junction_degree(NodeId(id(v))) == d) return true;
      }
      return false;
    };
    EXPECT_TRUE(degree_is(0)) << "isolated junctions";
    EXPECT_TRUE(degree_is(1)) << "dead ends";
    bool parallel = false;
    for (std::size_t v = 0; v < n && !parallel; ++v) {
      const std::vector<SegmentId>& row = star[v];
      for (std::size_t x = 0; x < row.size() && !parallel; ++x) {
        for (std::size_t y = x + 1; y < row.size() && !parallel; ++y) {
          parallel = net.other_endpoint(row[x], NodeId(id(v))) ==
                     net.other_endpoint(row[y], NodeId(id(v)));
        }
      }
    }
    EXPECT_TRUE(parallel) << "parallel segments";

    for (std::size_t v = 0; v < n; ++v) {
      const auto node = NodeId(id(v));
      const std::span<const SegmentId> segments = net.segments_at(node);
      ASSERT_EQ(std::vector<SegmentId>(segments.begin(), segments.end()), star[v]) << v;
      const std::span<const EdgeId> out_row = net.out_edges(node);
      EXPECT_EQ(std::vector<EdgeId>(out_row.begin(), out_row.end()), out[v]) << v;
      const std::span<const EdgeId> in_row = net.in_edges(node);
      EXPECT_EQ(std::vector<EdgeId>(in_row.begin(), in_row.end()), in[v]) << v;
      const std::span<const NodeId> far = net.star_far_ends(node);
      const std::span<const double> length = net.star_lengths(node);
      ASSERT_EQ(far.size(), star[v].size());
      ASSERT_EQ(length.size(), star[v].size());
      for (std::size_t k = 0; k < star[v].size(); ++k) {
        EXPECT_EQ(far[k], net.other_endpoint(star[v][k], node));
        EXPECT_EQ(length[k], net.segment_length(star[v][k]));
      }
    }
    const auto past_end = NodeId(id(n));
    EXPECT_THROW(static_cast<void>(net.segments_at(past_end)), NotFoundError);
    EXPECT_THROW(static_cast<void>(net.star_far_ends(past_end)), NotFoundError);
    EXPECT_THROW(static_cast<void>(net.star_lengths(NodeId::invalid())), NotFoundError);
    EXPECT_THROW(static_cast<void>(net.out_edges(past_end)), NotFoundError);
    EXPECT_THROW(static_cast<void>(net.in_edges(NodeId::invalid())), NotFoundError);
  }
}

}  // namespace
}  // namespace neat::roadnet
