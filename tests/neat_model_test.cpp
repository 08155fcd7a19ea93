// Tests for the NEAT model primitives — base clusters, netflow,
// f-neighborhoods — validated against the paper's worked Figure 1(b)
// example: d(S1)=4, d(S2)=3, d(S3)=1, d(S4)=2; f(S1,S2)=2, f(S1,S3)=1,
// f(S1,S4)=1, f(S2,S3)=0, f(S2,S4)=1; densecore = S1; maxFlow-neighbor of
// S1 at n2 is S2.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "core/base_cluster.h"
#include "core/fragmenter.h"
#include "core/netflow.h"
#include "test_util.h"

namespace neat {
namespace {

TFragment frag(std::int64_t trid, std::int32_t sid) {
  TFragment f;
  f.trid = TrajectoryId(trid);
  f.sid = SegmentId(sid);
  return f;
}

TEST(BaseCluster, DensityCountsFragmentsCardinalityCountsTrajectories) {
  BaseCluster c(SegmentId(3));
  c.add(frag(1, 3));
  c.add(frag(1, 3));  // same trajectory again (back-and-forth trip)
  c.add(frag(2, 3));
  c.finalize();
  EXPECT_EQ(c.density(), 3);
  EXPECT_EQ(c.cardinality(), 2);
  EXPECT_EQ(c.participants(), (std::vector<TrajectoryId>{TrajectoryId(1), TrajectoryId(2)}));
}

TEST(BaseCluster, RejectsForeignFragments) {
  BaseCluster c(SegmentId(3));
  EXPECT_THROW(c.add(frag(1, 4)), PreconditionError);
}

TEST(BaseCluster, ParticipantsRequireFinalize) {
  BaseCluster c(SegmentId(0));
  c.add(frag(1, 0));
  EXPECT_THROW(static_cast<void>(c.participants()), PreconditionError);
  c.finalize();
  EXPECT_EQ(c.cardinality(), 1);
  // Adding after finalize resets the invariant.
  c.add(frag(2, 0));
  EXPECT_THROW(static_cast<void>(c.participants()), PreconditionError);
}

TEST(Netflow, CountCommon) {
  using V = std::vector<TrajectoryId>;
  const V a{TrajectoryId(1), TrajectoryId(3), TrajectoryId(5)};
  const V b{TrajectoryId(2), TrajectoryId(3), TrajectoryId(5), TrajectoryId(9)};
  EXPECT_EQ(count_common(a, b), 2);
  EXPECT_EQ(count_common(a, V{}), 0);
  EXPECT_EQ(count_common(V{}, V{}), 0);
}

TEST(Netflow, MergeParticipants) {
  using V = std::vector<TrajectoryId>;
  const V a{TrajectoryId(1), TrajectoryId(3)};
  const V b{TrajectoryId(2), TrajectoryId(3)};
  EXPECT_EQ(merge_participants(a, b),
            (V{TrajectoryId(1), TrajectoryId(2), TrajectoryId(3)}));
  EXPECT_EQ(merge_participants(a, V{}), a);
}

// --- the paper's Figure 1 examples ------------------------------------------

class Fig1Example : public ::testing::Test {
 protected:
  Fig1Example() : net_(testutil::fig1_network()) {
    traj::TrajectoryDataset data;
    for (traj::Trajectory& tr : testutil::fig1_trajectories(net_)) data.add(std::move(tr));
    const Fragmenter fragmenter(net_);
    out_ = fragmenter.build_base_clusters(data);
  }

  const BaseCluster& cluster_of(std::int32_t sid) const {
    for (const BaseCluster& c : out_.base_clusters) {
      if (c.sid() == SegmentId(sid)) return c;
    }
    throw std::logic_error("no base cluster for segment");
  }

  roadnet::RoadNetwork net_;
  Phase1Output out_;
};

TEST_F(Fig1Example, FigureOneADecomposesIntoThreeFragments) {
  // Figure 1(a): a trajectory over three consecutive segments yields exactly
  // three t-fragments, in travel order.
  const Fragmenter fragmenter(net_);
  const traj::Trajectory tr =
      testutil::make_path_trajectory(net_, 99, {NodeId(0), NodeId(1), NodeId(2)});
  const auto frags = fragmenter.fragment(tr);
  ASSERT_EQ(frags.size(), 2u);  // n1->n2 on S1, n2->n3 on S2
  EXPECT_EQ(frags[0].sid, SegmentId(0));
  EXPECT_EQ(frags[1].sid, SegmentId(1));
}

TEST_F(Fig1Example, DensitiesMatchPaper) {
  EXPECT_EQ(cluster_of(0).density(), 4);  // d(S1) = 4
  EXPECT_EQ(cluster_of(1).density(), 3);  // d(S2) = 3
  EXPECT_EQ(cluster_of(2).density(), 1);  // d(S3) = 1
  EXPECT_EQ(cluster_of(3).density(), 2);  // d(S4) = 2
}

TEST_F(Fig1Example, DenseCoreIsS1) {
  // Phase 1 sorts by density descending: the first element is densecore(B).
  ASSERT_FALSE(out_.base_clusters.empty());
  EXPECT_EQ(out_.base_clusters.front().sid(), SegmentId(0));
}

TEST_F(Fig1Example, NetflowsMatchPaper) {
  EXPECT_EQ(netflow(cluster_of(0), cluster_of(1)), 2);  // f(S1,S2)
  EXPECT_EQ(netflow(cluster_of(0), cluster_of(2)), 1);  // f(S1,S3)
  EXPECT_EQ(netflow(cluster_of(0), cluster_of(3)), 1);  // f(S1,S4)
  EXPECT_EQ(netflow(cluster_of(1), cluster_of(2)), 0);  // f(S2,S3)
  EXPECT_EQ(netflow(cluster_of(1), cluster_of(3)), 1);  // f(S2,S4)
}

TEST_F(Fig1Example, NetflowIsSymmetric) {
  for (const BaseCluster& a : out_.base_clusters) {
    for (const BaseCluster& b : out_.base_clusters) {
      EXPECT_EQ(netflow(a, b), netflow(b, a));
    }
  }
}

TEST_F(Fig1Example, FNeighborhoodOfS1AtN2) {
  // Nf(S1, n2) = {S2, S3, S4}: all adjacent at n2 with positive netflow.
  const BaseCluster& s1 = cluster_of(0);
  std::vector<SegmentId> hood;
  for (const SegmentId other : net_.adjacent_segments(SegmentId(0), NodeId(1))) {
    for (const BaseCluster& c : out_.base_clusters) {
      if (c.sid() == other && netflow(s1, c) > 0) hood.push_back(other);
    }
  }
  std::sort(hood.begin(), hood.end());
  EXPECT_EQ(hood, (std::vector<SegmentId>{SegmentId(1), SegmentId(2), SegmentId(3)}));
}

TEST_F(Fig1Example, MaxFlowNeighborOfS1IsS2) {
  const BaseCluster& s1 = cluster_of(0);
  int best_flow = -1;
  SegmentId best = SegmentId::invalid();
  for (const BaseCluster& c : out_.base_clusters) {
    if (c.sid() == s1.sid() || !net_.are_adjacent(c.sid(), s1.sid())) continue;
    const int f = netflow(s1, c);
    if (f > best_flow) {
      best_flow = f;
      best = c.sid();
    }
  }
  EXPECT_EQ(best, SegmentId(1));  // S2
  EXPECT_EQ(best_flow, 2);
}

TEST_F(Fig1Example, NetflowFlowVsBaseCluster) {
  // f(F, S) with F = {S1, S2}: PTr(F) = {1,2,3,5} ∪ {1,2,4} = {1,2,3,4,5};
  // f(F, S4) = |{4,5} ∩ PTr(F)| = 2, f(F, S3) = |{3} ∩ PTr(F)| = 1.
  const auto participants =
      merge_participants(cluster_of(0).participants(), cluster_of(1).participants());
  EXPECT_EQ(netflow(participants, cluster_of(3)), 2);
  EXPECT_EQ(netflow(participants, cluster_of(2)), 1);
}

}  // namespace
}  // namespace neat
