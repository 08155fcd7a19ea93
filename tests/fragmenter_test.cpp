// Tests for NEAT Phase 1 — t-fragment extraction and base cluster formation:
// junction insertion between adjacent segments, gap repair across skipped
// segments, augmented trajectories, ordering of the base-cluster list.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/fragmenter.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"
#include "test_util.h"

namespace neat {
namespace {

traj::Location loc(std::int32_t sid, double x, double y, double t) {
  return traj::Location{SegmentId(sid), {x, y}, t, false};
}

TEST(Fragmenter, SingleSegmentTrajectory) {
  const roadnet::RoadNetwork net = testutil::line_network(3);
  const Fragmenter fragmenter(net);
  traj::Trajectory tr(TrajectoryId(1));
  tr.append(loc(1, 110, 0, 0.0));
  tr.append(loc(1, 150, 0, 1.0));
  tr.append(loc(1, 190, 0, 2.0));
  const auto frags = fragmenter.fragment(tr);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0].sid, SegmentId(1));
  EXPECT_EQ(frags[0].num_samples, 3u);
  EXPECT_EQ(frags[0].entry.pos, (Point{110, 0}));
  EXPECT_EQ(frags[0].exit.pos, (Point{190, 0}));
  EXPECT_EQ(frags[0].trid, TrajectoryId(1));
}

TEST(Fragmenter, SinglePointTrajectory) {
  const roadnet::RoadNetwork net = testutil::line_network(3);
  const Fragmenter fragmenter(net);
  traj::Trajectory tr(TrajectoryId(1));
  tr.append(loc(2, 250, 0, 0.0));
  const auto frags = fragmenter.fragment(tr);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0].num_samples, 1u);
  EXPECT_DOUBLE_EQ(frags[0].length(), 0.0);
}

TEST(Fragmenter, EmptyTrajectoryGivesNoFragments) {
  const roadnet::RoadNetwork net = testutil::line_network(3);
  const Fragmenter fragmenter(net);
  EXPECT_TRUE(fragmenter.fragment(traj::Trajectory(TrajectoryId(1))).empty());
}

TEST(Fragmenter, InsertsJunctionBetweenAdjacentSegments) {
  const roadnet::RoadNetwork net = testutil::line_network(3);
  const Fragmenter fragmenter(net);
  traj::Trajectory tr(TrajectoryId(7));
  tr.append(loc(0, 60, 0, 0.0));
  tr.append(loc(1, 140, 0, 8.0));
  const auto frags = fragmenter.fragment(tr);
  ASSERT_EQ(frags.size(), 2u);
  // Fragment 1 exits at the junction (100, 0); fragment 2 enters there.
  EXPECT_EQ(frags[0].sid, SegmentId(0));
  EXPECT_EQ(frags[0].exit.pos, (Point{100, 0}));
  EXPECT_TRUE(frags[0].exit.junction_point);
  EXPECT_EQ(frags[1].sid, SegmentId(1));
  EXPECT_EQ(frags[1].entry.pos, (Point{100, 0}));
  EXPECT_TRUE(frags[1].entry.junction_point);
  // Junction time interpolates distance-proportionally: 40 of 80 m -> t = 4.
  EXPECT_NEAR(frags[0].exit.t, 4.0, 1e-9);
}

TEST(Fragmenter, GapRepairEmitsIntermediateFragments) {
  // Points on segments 0 and 2 of a 4-segment line: segment 1 was skipped
  // entirely between samples. Phase 1 must recover it as a zero-sample
  // fragment between two junction points.
  const roadnet::RoadNetwork net = testutil::line_network(4);
  const Fragmenter fragmenter(net);
  traj::Trajectory tr(TrajectoryId(7));
  tr.append(loc(0, 60, 0, 0.0));
  tr.append(loc(2, 240, 0, 18.0));
  std::size_t repairs = 0;
  const auto frags = fragmenter.fragment(tr, &repairs);
  EXPECT_EQ(repairs, 1u);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_EQ(frags[0].sid, SegmentId(0));
  EXPECT_EQ(frags[1].sid, SegmentId(1));
  EXPECT_EQ(frags[2].sid, SegmentId(2));
  EXPECT_EQ(frags[1].num_samples, 0u);  // inferred, no raw samples
  EXPECT_EQ(frags[1].entry.pos, (Point{100, 0}));
  EXPECT_EQ(frags[1].exit.pos, (Point{200, 0}));
  EXPECT_TRUE(frags[1].entry.junction_point);
  // Timestamps interpolate monotonically across the repair.
  EXPECT_LT(frags[0].exit.t, frags[1].exit.t);
  EXPECT_LE(frags[1].exit.t, 18.0);
}

TEST(Fragmenter, GapRepairAcrossTwoSkippedSegments) {
  const roadnet::RoadNetwork net = testutil::line_network(5);
  const Fragmenter fragmenter(net);
  traj::Trajectory tr(TrajectoryId(7));
  tr.append(loc(0, 50, 0, 0.0));
  tr.append(loc(3, 350, 0, 30.0));
  const auto frags = fragmenter.fragment(tr);
  ASSERT_EQ(frags.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(frags[i].sid, SegmentId(static_cast<std::int32_t>(i)));
  }
}

TEST(Fragmenter, BackAndForthProducesTwoFragmentsOnSameSegment) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  const Fragmenter fragmenter(net);
  // n1 -> n2 -> n4 -> n2 -> n1: S1, S3, S3?, S1 — S3 visited once (in and
  // out across n2 without leaving the segment is still one fragment until
  // the segment changes).
  traj::Trajectory tr(TrajectoryId(7));
  tr.append(loc(0, 50, 0, 0.0));                     // S1
  tr.append(loc(2, 100, 50, 10.0));                  // S3 up
  tr.append(loc(2, 100, 80, 12.0));                  // S3 further
  tr.append(loc(2, 100, 30, 20.0));                  // S3 back down
  tr.append(loc(0, 40, 0, 30.0));                    // S1 again
  const auto frags = fragmenter.fragment(tr);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_EQ(frags[0].sid, SegmentId(0));
  EXPECT_EQ(frags[1].sid, SegmentId(2));
  EXPECT_EQ(frags[2].sid, SegmentId(0));
}

TEST(Fragmenter, PreservesTravelOrderAndDirection) {
  const roadnet::RoadNetwork net = testutil::line_network(3);
  const Fragmenter fragmenter(net);
  // Travelling right to left.
  traj::Trajectory tr(TrajectoryId(7));
  tr.append(loc(2, 290, 0, 0.0));
  tr.append(loc(1, 110, 0, 18.0));
  const auto frags = fragmenter.fragment(tr);
  ASSERT_EQ(frags.size(), 2u);
  EXPECT_EQ(frags[0].sid, SegmentId(2));
  EXPECT_GT(frags[0].entry.pos.x, frags[0].exit.pos.x) << "direction preserved";
  EXPECT_EQ(frags[1].sid, SegmentId(1));
}

TEST(Fragmenter, AugmentedKeepsRawPointsAndAddsJunctions) {
  const roadnet::RoadNetwork net = testutil::line_network(3);
  const Fragmenter fragmenter(net);
  traj::Trajectory tr(TrajectoryId(7));
  tr.append(loc(0, 60, 0, 0.0));
  tr.append(loc(1, 140, 0, 8.0));
  tr.append(loc(1, 180, 0, 12.0));
  const traj::Trajectory aug = fragmenter.augmented(tr);
  ASSERT_EQ(aug.size(), 4u);  // 3 raw + 1 junction
  EXPECT_FALSE(aug.point(0).junction_point);
  EXPECT_TRUE(aug.point(1).junction_point);
  EXPECT_EQ(aug.point(1).pos, (Point{100, 0}));
  EXPECT_FALSE(aug.point(2).junction_point);
  // Timestamps stay non-decreasing (Trajectory enforces it on append).
  for (std::size_t i = 1; i < aug.size(); ++i) {
    EXPECT_LE(aug.point(i - 1).t, aug.point(i).t);
  }
}

TEST(Fragmenter, RejectsUnknownSegmentIds) {
  const roadnet::RoadNetwork net = testutil::line_network(3);
  const Fragmenter fragmenter(net);
  traj::Trajectory tr(TrajectoryId(7));
  tr.append(loc(99, 0, 0, 0.0));
  EXPECT_THROW(fragmenter.fragment(tr), Error);
}

TEST(Fragmenter, BaseClustersSortedByDensityThenSid) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  traj::TrajectoryDataset data;
  for (traj::Trajectory& tr : testutil::fig1_trajectories(net)) data.add(std::move(tr));
  const Fragmenter fragmenter(net);
  const Phase1Output out = fragmenter.build_base_clusters(data);
  ASSERT_EQ(out.base_clusters.size(), 4u);
  for (std::size_t i = 1; i < out.base_clusters.size(); ++i) {
    const BaseCluster& prev = out.base_clusters[i - 1];
    const BaseCluster& cur = out.base_clusters[i];
    EXPECT_TRUE(prev.density() > cur.density() ||
                (prev.density() == cur.density() && prev.sid() < cur.sid()));
  }
  EXPECT_EQ(out.num_fragments, 10u);  // 2 fragments per trajectory, 5 trajectories
}

TEST(Fragmenter, FragmentCountMatchesSegmentTransitions) {
  // Property on simulated data: fragments per trajectory = segment changes
  // + 1 when no gaps occur (3 s sampling cannot skip 100 m segments at
  // 10 m/s < 34 m/sample).
  const roadnet::RoadNetwork net = roadnet::make_grid(6, 6, 100.0, 10.0);
  sim::SimConfig cfg;
  cfg.hotspots = {NodeId(0)};
  cfg.destinations = {NodeId(35)};
  cfg.sample_period_s = 3.0;
  const sim::MobilitySimulator simulator(net, cfg);
  const traj::TrajectoryDataset data = simulator.generate(10, 77);
  const Fragmenter fragmenter(net);
  for (const traj::Trajectory& tr : data) {
    std::size_t transitions = 0;
    for (std::size_t i = 1; i < tr.size(); ++i) {
      if (tr.point(i).sid != tr.point(i - 1).sid) ++transitions;
    }
    std::size_t repairs = 0;
    const auto frags = fragmenter.fragment(tr, &repairs);
    EXPECT_EQ(repairs, 0u);
    EXPECT_EQ(frags.size(), transitions + 1);
    // Fragment chain is contiguous: consecutive fragments lie on adjacent
    // segments and share their junction point.
    for (std::size_t i = 1; i < frags.size(); ++i) {
      EXPECT_TRUE(net.are_adjacent(frags[i - 1].sid, frags[i].sid));
      EXPECT_EQ(frags[i - 1].exit.pos, frags[i].entry.pos);
    }
  }
}

/// A source over fixed trajectories: it can repeat an id, which a
/// TrajectoryDataset refuses to hold.
class VectorSource final : public TrajectorySource {
 public:
  explicit VectorSource(std::vector<traj::Trajectory> trajectories)
      : trajectories_(std::move(trajectories)) {}
  [[nodiscard]] std::size_t size() const override { return trajectories_.size(); }
  [[nodiscard]] traj::Trajectory at(std::size_t i) const override { return trajectories_[i]; }

 private:
  std::vector<traj::Trajectory> trajectories_;
};

// Regression: a repeated trajectory id used to be accepted (one participant
// counted twice in density) when both copies fell in one streaming batch,
// and rejected only across batches. It is rejected wherever it falls.
TEST(Fragmenter, RepeatedTrajectoryIdIsRejectedWhereverItFalls) {
  const roadnet::RoadNetwork net = testutil::line_network(3);
  const Fragmenter fragmenter(net);
  const auto trip = [](std::int64_t id) {
    traj::Trajectory tr{TrajectoryId(id)};
    tr.append(loc(0, 50, 0, 0.0));
    tr.append(loc(1, 150, 0, 10.0));
    return tr;
  };
  // Id 7 twice in a row, then at both ends of an input spanning two batches.
  std::vector<std::vector<traj::Trajectory>> inputs(2);
  inputs[0] = {trip(7), trip(7)};
  inputs[1].push_back(trip(7));
  for (std::int64_t id = 100; inputs[1].size() <= Fragmenter::kBatchSize; ++id) {
    inputs[1].push_back(trip(id));
  }
  inputs[1].push_back(trip(7));
  for (const std::vector<traj::Trajectory>& trips : inputs) {
    for (const unsigned threads : {1u, 4u}) {
      VectorSource source(trips);
      try {
        (void)fragmenter.build_base_clusters(source, threads);
        ADD_FAILURE() << "repeated id accepted (" << trips.size() << " trajectories, "
                      << threads << " threads)";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("trajectory id 7 "), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Fragmenter, GapRepairCountsInPhase1Output) {
  const roadnet::RoadNetwork net = testutil::line_network(4);
  traj::TrajectoryDataset data;
  traj::Trajectory tr(TrajectoryId(1));
  tr.append(loc(0, 60, 0, 0.0));
  tr.append(loc(2, 240, 0, 18.0));
  data.add(std::move(tr));
  const Fragmenter fragmenter(net);
  const Phase1Output out = fragmenter.build_base_clusters(data);
  EXPECT_EQ(out.num_gap_repairs, 1u);
  EXPECT_EQ(out.num_fragments, 3u);
  EXPECT_EQ(out.base_clusters.size(), 3u);
}

}  // namespace
}  // namespace neat
