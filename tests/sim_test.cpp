// Tests for the mobility simulator: physical plausibility invariants of the
// generated traces (on-segment positions, adjacency of consecutive segments,
// speed-limit compliance) plus determinism and config validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"
#include "sim/mobility_simulator.h"
#include "sim/trip_planner.h"
#include "test_util.h"

namespace neat::sim {
namespace {

SimConfig line_config(const roadnet::RoadNetwork& net) {
  SimConfig cfg;
  cfg.hotspots = {NodeId(0)};
  cfg.destinations = {NodeId(static_cast<std::int32_t>(net.node_count() - 1))};
  cfg.sample_period_s = 2.0;
  cfg.start_jitter_s = 0.0;
  return cfg;
}

TEST(TripPlanner, CachesPerDestination) {
  const roadnet::RoadNetwork net = roadnet::make_grid(5, 5, 100.0);
  TripPlanner planner(net, roadnet::Metric::kDistance);
  EXPECT_EQ(planner.cached_destinations(), 0u);
  ASSERT_TRUE(planner.plan(NodeId(0), NodeId(24)).has_value());
  ASSERT_TRUE(planner.plan(NodeId(12), NodeId(24)).has_value());
  EXPECT_EQ(planner.cached_destinations(), 1u);
  ASSERT_TRUE(planner.plan(NodeId(24), NodeId(0)).has_value());
  EXPECT_EQ(planner.cached_destinations(), 2u);
  EXPECT_TRUE(planner.plan(NodeId(0), NodeId(7)).has_value());
}

TEST(TripPlanner, RoutesMatchForwardSearch) {
  const roadnet::RoadNetwork net = roadnet::make_grid(6, 6, 100.0);
  TripPlanner planner(net, roadnet::Metric::kDistance);
  for (int s = 0; s < 36; s += 7) {
    const auto planned = planner.plan(NodeId(s), NodeId(35));
    const auto direct =
        roadnet::shortest_route(net, NodeId(s), NodeId(35), roadnet::Metric::kDistance);
    ASSERT_EQ(planned.has_value(), direct.has_value());
    if (planned) {
      EXPECT_NEAR(planned->length, direct->length, 1e-9);
    }
  }

  // More distinct destinations than the cache holds, visited twice: every
  // eviction must leave the answers as they were and the cache bounded.
  const roadnet::RoadNetwork grid = roadnet::make_grid(12, 12, 100.0);
  TripPlanner bounded(grid, roadnet::Metric::kDistance);
  const auto n = static_cast<std::int32_t>(grid.node_count());
  ASSERT_GT(static_cast<std::size_t>(n), TripPlanner::kMaxCachedDestinations);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::int32_t t = 0; t < n; ++t) {
      const auto planned = bounded.plan(NodeId(5), NodeId(t));
      const auto direct =
          roadnet::shortest_route(grid, NodeId(5), NodeId(t), roadnet::Metric::kDistance);
      ASSERT_EQ(planned.has_value(), direct.has_value()) << "to " << t;
      if (planned) {
        EXPECT_DOUBLE_EQ(planned->length, direct->length) << "to " << t;
      }
      ASSERT_LE(bounded.cached_destinations(), TripPlanner::kMaxCachedDestinations);
    }
  }
}

TEST(SimulateTrip, SamplesLieOnClaimedSegments) {
  const roadnet::RoadNetwork net = roadnet::make_grid(4, 4, 100.0);
  const auto route = roadnet::shortest_route(net, NodeId(0), NodeId(15),
                                             roadnet::Metric::kDistance);
  ASSERT_TRUE(route.has_value());
  SimConfig cfg;
  cfg.hotspots = {NodeId(0)};
  cfg.destinations = {NodeId(15)};
  cfg.sample_period_s = 1.5;
  const traj::Trajectory tr =
      simulate_trip(net, cfg, TrajectoryId(1), *route, 0.0, 0.9);
  ASSERT_GE(tr.size(), 2u);
  for (const traj::Location& loc : tr.points()) {
    const roadnet::Segment& s = net.segment(loc.sid);
    const double d = point_segment_distance(loc.pos, net.node(s.a).pos, net.node(s.b).pos);
    EXPECT_LT(d, 1e-6) << "sample must lie on its claimed segment";
  }
}

TEST(SimulateTrip, StartsAtOriginEndsAtDestination) {
  const roadnet::RoadNetwork net = testutil::line_network(5);
  const auto route =
      roadnet::shortest_route(net, NodeId(0), NodeId(5), roadnet::Metric::kDistance);
  ASSERT_TRUE(route.has_value());
  const traj::Trajectory tr =
      simulate_trip(net, line_config(net), TrajectoryId(1), *route, 10.0, 1.0);
  EXPECT_EQ(tr.front().pos, net.node(NodeId(0)).pos);
  EXPECT_DOUBLE_EQ(tr.front().t, 10.0);
  EXPECT_EQ(tr.back().pos, net.node(NodeId(5)).pos);
  // 500 m at 10 m/s -> 50 s travel.
  EXPECT_NEAR(tr.back().t, 60.0, 1e-9);
}

TEST(SimulateTrip, RespectsSpeedLimit) {
  const roadnet::RoadNetwork net = testutil::line_network(5, 100.0, 10.0);
  const auto route =
      roadnet::shortest_route(net, NodeId(0), NodeId(5), roadnet::Metric::kDistance);
  ASSERT_TRUE(route.has_value());
  SimConfig cfg = line_config(net);
  const traj::Trajectory tr = simulate_trip(net, cfg, TrajectoryId(1), *route, 0.0, 0.85);
  for (std::size_t i = 1; i < tr.size(); ++i) {
    const double dt = tr.point(i).t - tr.point(i - 1).t;
    const double dx = distance(tr.point(i).pos, tr.point(i - 1).pos);
    if (dt > 0.0) {
      EXPECT_LE(dx / dt, 10.0 + 1e-9) << "observed speed above the limit";
    }
  }
}

TEST(SimulateTrip, ConsecutiveSegmentsAdjacentOrEqual) {
  const roadnet::RoadNetwork net = roadnet::make_grid(5, 5, 100.0);
  const auto route =
      roadnet::shortest_route(net, NodeId(0), NodeId(24), roadnet::Metric::kDistance);
  ASSERT_TRUE(route.has_value());
  SimConfig cfg;
  cfg.hotspots = {NodeId(0)};
  cfg.destinations = {NodeId(24)};
  cfg.sample_period_s = 3.0;
  const traj::Trajectory tr = simulate_trip(net, cfg, TrajectoryId(1), *route, 0.0, 1.0);
  for (std::size_t i = 1; i < tr.size(); ++i) {
    const SegmentId prev = tr.point(i - 1).sid;
    const SegmentId cur = tr.point(i).sid;
    EXPECT_TRUE(prev == cur || net.are_adjacent(prev, cur))
        << "at point " << i << ": sampling may not skip segments at 3 s period";
  }
}

TEST(Simulator, DeterministicForSeed) {
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 120.0);
  const SimConfig cfg = default_config(net, 2, 3);
  const MobilitySimulator simulator(net, cfg);
  const traj::TrajectoryDataset a = simulator.generate(20, 7);
  const traj::TrajectoryDataset b = simulator.generate(20, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i].point(j).sid, b[i].point(j).sid);
      EXPECT_DOUBLE_EQ(a[i].point(j).t, b[i].point(j).t);
    }
  }
  const traj::TrajectoryDataset c = simulator.generate(20, 8);
  bool any_difference = c.size() != a.size();
  for (std::size_t i = 0; !any_difference && i < a.size(); ++i) {
    any_difference = a[i].size() != c[i].size();
  }
  EXPECT_TRUE(any_difference) << "different seeds should differ";
}

TEST(Simulator, TripsStartInHotspotRegionsEndAtDestinations) {
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 120.0);
  SimConfig cfg = default_config(net, 2, 3);
  cfg.start_jitter_s = 0.0;
  cfg.hotspot_radius_m = 300.0;
  const MobilitySimulator simulator(net, cfg);
  const traj::TrajectoryDataset data = simulator.generate(25, 3);
  ASSERT_GT(data.size(), 0u);
  for (const traj::Trajectory& tr : data) {
    const Point start = tr.front().pos;
    const Point end = tr.back().pos;
    const bool starts_in_region = std::any_of(
        cfg.hotspots.begin(), cfg.hotspots.end(), [&](NodeId h) {
          return distance(net.node(h).pos, start) <= cfg.hotspot_radius_m + 1e-6;
        });
    const bool ends_at_destination = std::any_of(
        cfg.destinations.begin(), cfg.destinations.end(),
        [&](NodeId d) { return distance(net.node(d).pos, end) < 1e-6; });
    EXPECT_TRUE(starts_in_region);
    EXPECT_TRUE(ends_at_destination);
  }
}

TEST(Simulator, ZeroRadiusPinsOriginsToHotspotCenters) {
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 120.0);
  SimConfig cfg = default_config(net, 2, 3);
  cfg.start_jitter_s = 0.0;
  cfg.hotspot_radius_m = 0.0;
  const MobilitySimulator simulator(net, cfg);
  const traj::TrajectoryDataset data = simulator.generate(15, 3);
  for (const traj::Trajectory& tr : data) {
    const bool at_center = std::any_of(
        cfg.hotspots.begin(), cfg.hotspots.end(),
        [&](NodeId h) { return distance(net.node(h).pos, tr.front().pos) < 1e-6; });
    EXPECT_TRUE(at_center);
  }
}

TEST(Simulator, WiderRadiusYieldsMoreDistinctOrigins) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 120.0);
  SimConfig narrow = default_config(net, 2, 3);
  narrow.hotspot_radius_m = 0.0;
  SimConfig wide = narrow;
  wide.hotspot_radius_m = 400.0;
  const auto distinct_origins = [&](const SimConfig& cfg) {
    const MobilitySimulator simulator(net, cfg);
    const traj::TrajectoryDataset data = simulator.generate(40, 9);
    std::vector<std::pair<double, double>> origins;
    for (const traj::Trajectory& tr : data) {
      origins.emplace_back(tr.front().pos.x, tr.front().pos.y);
    }
    std::sort(origins.begin(), origins.end());
    origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
    return origins.size();
  };
  EXPECT_GT(distinct_origins(wide), distinct_origins(narrow));
}

TEST(Simulator, WeightedHotspotsRespected) {
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 120.0);
  SimConfig cfg = default_config(net, 2, 3);
  cfg.hotspot_weights = {1.0, 0.0};  // all trips from the first hotspot
  cfg.start_jitter_s = 0.0;
  cfg.hotspot_radius_m = 0.0;
  const MobilitySimulator simulator(net, cfg);
  const traj::TrajectoryDataset data = simulator.generate(15, 3);
  for (const traj::Trajectory& tr : data) {
    EXPECT_LT(distance(tr.front().pos, net.node(cfg.hotspots[0]).pos), 1e-6);
  }
}

TEST(Simulator, PointCountScalesWithObjects) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 120.0);
  const SimConfig cfg = default_config(net, 2, 3);
  const MobilitySimulator simulator(net, cfg);
  const std::size_t p50 = simulator.generate(50, 1).total_points();
  const std::size_t p100 = simulator.generate(100, 1).total_points();
  EXPECT_GT(p100, p50);
  EXPECT_NEAR(static_cast<double>(p100) / static_cast<double>(p50), 2.0, 0.5);
}

TEST(Simulator, ValidatesConfig) {
  const roadnet::RoadNetwork net = roadnet::make_grid(4, 4, 100.0);
  SimConfig cfg;
  EXPECT_THROW(MobilitySimulator(net, cfg), PreconditionError);  // no hotspots
  cfg.hotspots = {NodeId(0)};
  EXPECT_THROW(MobilitySimulator(net, cfg), PreconditionError);  // no destinations
  cfg.destinations = {NodeId(15)};
  cfg.sample_period_s = 0.0;
  EXPECT_THROW(MobilitySimulator(net, cfg), PreconditionError);
  cfg.sample_period_s = 4.0;
  cfg.min_speed_factor = 1.2;
  cfg.max_speed_factor = 1.0;
  EXPECT_THROW(MobilitySimulator(net, cfg), PreconditionError);
  cfg.min_speed_factor = 0.8;
  cfg.hotspot_weights = {1.0, 2.0};  // size mismatch
  EXPECT_THROW(MobilitySimulator(net, cfg), PreconditionError);
  cfg.hotspot_weights.clear();
  cfg.hotspots = {NodeId(999)};
  EXPECT_THROW(MobilitySimulator(net, cfg), Error);
}

TEST(Simulator, RawTracesCarryNoise) {
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 120.0);
  const SimConfig cfg = default_config(net, 2, 3);
  const MobilitySimulator simulator(net, cfg);
  const traj::TrajectoryDataset clean = simulator.generate(10, 5);
  const std::vector<traj::RawTrace> noisy = simulator.generate_raw(10, 5, 8.0);
  ASSERT_EQ(noisy.size(), clean.size());
  double total_offset = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    ASSERT_EQ(noisy[i].points.size(), clean[i].size());
    for (std::size_t j = 0; j < clean[i].size(); ++j) {
      total_offset += distance(noisy[i].points[j].pos, clean[i].point(j).pos);
      ++n;
    }
  }
  const double mean_offset = total_offset / static_cast<double>(n);
  // Rayleigh mean for sigma = 8 is ~10; accept a broad band.
  EXPECT_GT(mean_offset, 5.0);
  EXPECT_LT(mean_offset, 20.0);
  const std::vector<traj::RawTrace> exact = simulator.generate_raw(10, 5, 0.0);
  EXPECT_EQ(distance(exact[0].points[0].pos, clean[0].point(0).pos), 0.0);
  EXPECT_THROW(simulator.generate_raw(10, 5, -1.0), PreconditionError);
}

TEST(Congestion, FactorLookup) {
  const std::vector<CongestionWindow> profile{{100.0, 200.0, 0.5}, {200.0, 300.0, 0.8}};
  EXPECT_DOUBLE_EQ(congestion_factor(profile, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(congestion_factor(profile, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(congestion_factor(profile, 199.9), 0.5);
  EXPECT_DOUBLE_EQ(congestion_factor(profile, 200.0), 0.8);
  EXPECT_DOUBLE_EQ(congestion_factor(profile, 300.0), 1.0);
  EXPECT_DOUBLE_EQ(congestion_factor({}, 0.0), 1.0);
}

TEST(Congestion, RushHourSlowsTrips) {
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 120.0);
  SimConfig free_flow = default_config(net, 2, 3);
  free_flow.start_jitter_s = 100.0;
  SimConfig rush = free_flow;
  rush.congestion = {{0.0, 1e9, 0.5}};  // everything at half speed
  const traj::TrajectoryDataset fast = MobilitySimulator(net, free_flow).generate(20, 3);
  const traj::TrajectoryDataset slow = MobilitySimulator(net, rush).generate(20, 3);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    // Same seed picks the same origin/destination/speed draw; congestion
    // halves the effective speed, doubling the trip duration.
    EXPECT_NEAR(slow[i].duration(), fast[i].duration() * 2.0, 1e-6);
  }
}

TEST(Congestion, ValidatesProfile) {
  const roadnet::RoadNetwork net = roadnet::make_grid(4, 4, 100.0);
  SimConfig cfg = default_config(net, 1, 1);
  cfg.congestion = {{100.0, 50.0, 0.5}};  // inverted window
  EXPECT_THROW(MobilitySimulator(net, cfg), PreconditionError);
  cfg.congestion = {{0.0, 10.0, 1.5}};  // speed-up is not congestion
  EXPECT_THROW(MobilitySimulator(net, cfg), PreconditionError);
  cfg.congestion = {{0.0, 10.0, 0.0}};
  EXPECT_THROW(MobilitySimulator(net, cfg), PreconditionError);
}

TEST(DefaultConfig, PicksDistinctSpreadNodes) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 100.0);
  const SimConfig cfg = default_config(net, 3, 3);
  EXPECT_GE(cfg.hotspots.size(), 2u);
  EXPECT_GE(cfg.destinations.size(), 2u);
  EXPECT_THROW(default_config(net, 0, 3), PreconditionError);
}

}  // namespace
}  // namespace neat::sim
