// Tests for the trajectory store: insertion, indexes, time-window and
// netflow queries, snapshots, and consistency with Phase 1.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "core/clusterer.h"
#include "core/netflow.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"
#include "store/trajectory_store.h"
#include "test_util.h"

namespace neat::store {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class StoreFixture : public ::testing::Test {
 protected:
  StoreFixture() : net_(testutil::fig1_network()), store_(net_) {
    for (traj::Trajectory& tr : testutil::fig1_trajectories(net_)) {
      store_.insert(std::move(tr));
    }
  }

  roadnet::RoadNetwork net_;
  TrajectoryStore store_;
};

TEST_F(StoreFixture, SizeAndStats) {
  EXPECT_EQ(store_.size(), 5u);
  const StoreStats st = store_.stats();
  EXPECT_EQ(st.num_trajectories, 5u);
  EXPECT_EQ(st.num_traversals, 10u);  // 2 fragments x 5 trajectories
  EXPECT_EQ(st.num_indexed_segments, 4u);
  EXPECT_GT(st.num_points, 0u);
}

TEST_F(StoreFixture, FindById) {
  const traj::Trajectory* tr = store_.find(TrajectoryId(3));
  ASSERT_NE(tr, nullptr);
  EXPECT_EQ(tr->id(), TrajectoryId(3));
  EXPECT_EQ(store_.find(TrajectoryId(99)), nullptr);
}

TEST_F(StoreFixture, RejectsDuplicatesAndEmpties) {
  EXPECT_THROW(store_.insert(testutil::make_path_trajectory(net_, 1, {NodeId(0), NodeId(1)})),
               PreconditionError);
  EXPECT_THROW(store_.insert(traj::Trajectory(TrajectoryId(77))), PreconditionError);
}

TEST_F(StoreFixture, TraversalsSortedByTime) {
  const auto ts = store_.traversals(SegmentId(0));  // S1: 4 traversals
  ASSERT_EQ(ts.size(), 4u);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LE(ts[i - 1].enter_t, ts[i].enter_t);
  }
  for (const Traversal& t : ts) EXPECT_LE(t.enter_t, t.exit_t);
  EXPECT_TRUE(store_.traversals(SegmentId(1)).size() == 3u);
  EXPECT_THROW((void)store_.traversals(SegmentId(99)), Error);
}

TEST(Store, RepeatedReadsDoNotResort) {
  // traversals() is zero-copy: the per-segment list is maintained sorted at
  // insert, so repeated reads return the same vector without re-sorting.
  const roadnet::RoadNetwork net = testutil::line_network(2);
  TrajectoryStore store(net);
  // Insert out of time order: trid 7 enters segment 0 at t=100, trid 3 at
  // t=0, trid 5 also at t=0 (ties break by ascending trajectory id).
  store.insert(testutil::make_path_trajectory(net, 7, {NodeId(0), NodeId(1)}, 100.0));
  store.insert(testutil::make_path_trajectory(net, 5, {NodeId(0), NodeId(1)}, 0.0));
  store.insert(testutil::make_path_trajectory(net, 3, {NodeId(0), NodeId(1)}, 0.0));

  const std::vector<Traversal>& first = store.traversals(SegmentId(0));
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].trid, TrajectoryId(3));
  EXPECT_EQ(first[1].trid, TrajectoryId(5));
  EXPECT_EQ(first[2].trid, TrajectoryId(7));
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_LE(first[i - 1].enter_t, first[i].enter_t);
  }
  // Same storage on every read (reference identity, no copy, no re-sort).
  EXPECT_EQ(&first, &store.traversals(SegmentId(0)));
  // A segment nobody traversed yields the shared empty list, also stable.
  const std::vector<Traversal>& empty = store.traversals(SegmentId(1));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(&empty, &store.traversals(SegmentId(1)));
}

TEST_F(StoreFixture, TrajectoriesOnSegmentMatchFig1Participants) {
  // PTr(S1) = {1, 2, 3, 5}; PTr(S3) = {3}.
  EXPECT_EQ(store_.trajectories_on(SegmentId(0), -kInf, kInf),
            (std::vector<TrajectoryId>{TrajectoryId(1), TrajectoryId(2), TrajectoryId(3),
                                       TrajectoryId(5)}));
  EXPECT_EQ(store_.trajectories_on(SegmentId(2), -kInf, kInf),
            (std::vector<TrajectoryId>{TrajectoryId(3)}));
}

TEST_F(StoreFixture, TimeWindowFilters) {
  // All fig1 trajectories start at t = 0 and run a few seconds.
  EXPECT_FALSE(store_.trajectories_on(SegmentId(0), 0.0, 10.0).empty());
  EXPECT_TRUE(store_.trajectories_on(SegmentId(0), 1000.0, 2000.0).empty());
  EXPECT_THROW(store_.trajectories_on(SegmentId(0), 5.0, 1.0), PreconditionError);
}

TEST_F(StoreFixture, SegmentNetflowMatchesPaperExample) {
  EXPECT_EQ(store_.segment_netflow(SegmentId(0), SegmentId(1)), 2);  // f(S1,S2)
  EXPECT_EQ(store_.segment_netflow(SegmentId(0), SegmentId(2)), 1);  // f(S1,S3)
  EXPECT_EQ(store_.segment_netflow(SegmentId(1), SegmentId(2)), 0);  // f(S2,S3)
  EXPECT_EQ(store_.segment_netflow(SegmentId(1), SegmentId(3)), 1);  // f(S2,S4)
}

TEST_F(StoreFixture, ActiveBetween) {
  EXPECT_EQ(store_.active_between(0.0, 100.0).size(), 5u);
  EXPECT_TRUE(store_.active_between(1000.0, 2000.0).empty());
}

TEST_F(StoreFixture, SnapshotRangeAndFull) {
  const traj::TrajectoryDataset some = store_.snapshot(TrajectoryId(2), TrajectoryId(4));
  ASSERT_EQ(some.size(), 3u);
  EXPECT_EQ(some[0].id(), TrajectoryId(2));
  EXPECT_EQ(some[2].id(), TrajectoryId(4));
  EXPECT_EQ(store_.snapshot().size(), 5u);
  EXPECT_THROW(store_.snapshot(TrajectoryId(4), TrajectoryId(2)), PreconditionError);
}

TEST_F(StoreFixture, SnapshotBetween) {
  // Fig1 trips all start at t = 0 and last a few seconds.
  EXPECT_EQ(store_.snapshot_between(0.0, 100.0).size(), 5u);
  EXPECT_TRUE(store_.snapshot_between(1000.0, 2000.0).empty());
  EXPECT_THROW(store_.snapshot_between(5.0, 1.0), PreconditionError);
}

TEST(Store, WindowBoundarySemantics) {
  // Window predicates treat trajectory spans and windows as closed
  // intervals: an exact touch at either endpoint counts.
  const roadnet::RoadNetwork net = testutil::line_network(2);
  TrajectoryStore store(net);
  // One trajectory spanning [10, 13] (4 samples, 1 s apart, from t0=10).
  store.insert(testutil::make_path_trajectory(net, 1, {NodeId(0), NodeId(1), NodeId(2)}, 10.0));

  // Exact touch at the trajectory's end...
  EXPECT_EQ(store.active_between(13.0, 99.0).size(), 1u);
  EXPECT_EQ(store.snapshot_between(13.0, 99.0).size(), 1u);
  // ...and at its start.
  EXPECT_EQ(store.active_between(-99.0, 10.0).size(), 1u);
  EXPECT_EQ(store.snapshot_between(-99.0, 10.0).size(), 1u);
  // Just past either endpoint misses.
  EXPECT_TRUE(store.active_between(13.001, 99.0).empty());
  EXPECT_TRUE(store.snapshot_between(-99.0, 9.999).empty());
  // A degenerate window [t, t] inside the span still matches.
  EXPECT_EQ(store.active_between(11.0, 11.0).size(), 1u);
  EXPECT_EQ(store.snapshot_between(11.0, 11.0).size(), 1u);
  // Infinite windows see everything; inverted windows are rejected.
  EXPECT_EQ(store.active_between(-kInf, kInf).size(), 1u);
  EXPECT_EQ(store.snapshot_between(-kInf, kInf).size(), 1u);
  EXPECT_THROW(store.active_between(2.0, 1.0), PreconditionError);
  EXPECT_THROW(store.snapshot_between(2.0, 1.0), PreconditionError);

  // trajectories_on applies the same closed-interval rule per traversal
  // (the traversal ends at the interpolated junction-crossing time).
  const auto& on_s0 = store.traversals(SegmentId(0));
  ASSERT_EQ(on_s0.size(), 1u);
  const double exit_t = on_s0[0].exit_t;
  EXPECT_EQ(store.trajectories_on(SegmentId(0), exit_t, 99.0).size(), 1u);
  EXPECT_TRUE(store.trajectories_on(SegmentId(0), exit_t + 0.001, 99.0).empty());
}

TEST(Store, StatsAfterBulkInsert) {
  const roadnet::RoadNetwork net = roadnet::make_grid(6, 6, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 2);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(20, 5);
  TrajectoryStore store(net);
  store.insert(data);

  std::size_t points = 0;
  for (const traj::Trajectory& tr : data) points += tr.size();
  const StoreStats st = store.stats();
  EXPECT_EQ(st.num_trajectories, data.size());
  EXPECT_EQ(st.num_points, points);
  // Every trajectory contributes at least one traversal, and every
  // traversal lands on an indexed segment.
  EXPECT_GE(st.num_traversals, data.size());
  EXPECT_GE(st.num_indexed_segments, 1u);
  EXPECT_LE(st.num_indexed_segments, net.segment_count());
  // The traversal count equals the sum of the per-segment list sizes.
  std::size_t listed = 0;
  for (std::size_t s = 0; s < net.segment_count(); ++s) {
    listed += store.traversals(SegmentId(static_cast<std::int32_t>(s))).size();
  }
  EXPECT_EQ(listed, st.num_traversals);
}

TEST(Store, TimeSlicedClusteringSeesOnlyWindowTraffic) {
  // Morning and evening traffic use disjoint corridors; clustering the
  // morning slice must not see the evening flows.
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 110.0);
  TrajectoryStore store(net);
  // Morning (t ~ 0): along the bottom row. Evening (t ~ 10000): top row.
  std::vector<NodeId> bottom;
  std::vector<NodeId> top;
  for (int c = 0; c < 8; ++c) {
    bottom.push_back(NodeId(c));
    top.push_back(NodeId(7 * 8 + c));
  }
  for (std::int64_t i = 0; i < 5; ++i) {
    store.insert(testutil::make_path_trajectory(net, i, bottom, 0.0));
    store.insert(testutil::make_path_trajectory(net, 100 + i, top, 10000.0));
  }
  Config cfg;
  cfg.mode = Mode::kFlow;
  const Result morning = NeatClusterer(net, cfg).run(store.snapshot_between(0.0, 5000.0));
  const Result evening =
      NeatClusterer(net, cfg).run(store.snapshot_between(9000.0, 20000.0));
  ASSERT_FALSE(morning.flow_clusters.empty());
  ASSERT_FALSE(evening.flow_clusters.empty());
  for (const FlowCluster& f : morning.flow_clusters) {
    for (const NodeId j : f.junctions) {
      EXPECT_LT(net.node(j).pos.y, 200.0) << "morning flows stay on the bottom row";
    }
  }
  for (const FlowCluster& f : evening.flow_clusters) {
    for (const NodeId j : f.junctions) {
      EXPECT_GT(net.node(j).pos.y, 600.0) << "evening flows stay on the top row";
    }
  }
}

TEST(Store, SnapshotFeedsClusteringUnchanged) {
  // Property: clustering the store snapshot equals clustering the original
  // dataset (the store is lossless).
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(30, 44);
  TrajectoryStore store(net);
  store.insert(data);

  Config cfg;
  cfg.mode = Mode::kFlow;
  const Result direct = NeatClusterer(net, cfg).run(data);
  const Result via_store = NeatClusterer(net, cfg).run(store.snapshot());
  ASSERT_EQ(direct.flow_clusters.size(), via_store.flow_clusters.size());
  for (std::size_t i = 0; i < direct.flow_clusters.size(); ++i) {
    EXPECT_EQ(direct.flow_clusters[i].route, via_store.flow_clusters[i].route);
  }
}

TEST(Store, GapRepairedSegmentsAreIndexed) {
  // A trajectory that skips a segment still registers a traversal on it
  // (the store uses Phase 1 extraction, which repairs the gap).
  const roadnet::RoadNetwork net = testutil::line_network(4);
  TrajectoryStore store(net);
  traj::Trajectory tr(TrajectoryId(1));
  tr.append(traj::Location{SegmentId(0), {60, 0}, 0.0, false});
  tr.append(traj::Location{SegmentId(2), {240, 0}, 18.0, false});
  store.insert(std::move(tr));
  EXPECT_EQ(store.trajectories_on(SegmentId(1), -kInf, kInf).size(), 1u);
}

TEST(Store, SegmentNetflowAgreesWithClusterNetflow) {
  // Property: store-level segment netflow equals the Phase 1 base-cluster
  // netflow for every adjacent segment pair.
  const roadnet::RoadNetwork net = roadnet::make_grid(7, 7, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 2);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(25, 8);
  TrajectoryStore store(net);
  store.insert(data);

  const Fragmenter fragmenter(net);
  const Phase1Output p1 = fragmenter.build_base_clusters(data);
  for (std::size_t i = 0; i < p1.base_clusters.size(); ++i) {
    for (std::size_t j = i + 1; j < std::min(p1.base_clusters.size(), i + 5); ++j) {
      const int via_clusters = netflow(p1.base_clusters[i], p1.base_clusters[j]);
      const int via_store =
          store.segment_netflow(p1.base_clusters[i].sid(), p1.base_clusters[j].sid());
      EXPECT_EQ(via_clusters, via_store);
    }
  }
}

}  // namespace
}  // namespace neat::store
