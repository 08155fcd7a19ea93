// Tests for sharded Phase 1 / the distributed pipeline: exact equivalence
// with the monolithic run for contiguous shards, merge semantics for
// overlapping segments, and edge cases.
#include <gtest/gtest.h>

#include "common/error.h"
#include "core/distributed.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"
#include "test_util.h"

namespace neat {
namespace {

std::vector<traj::TrajectoryDataset> contiguous_shards(const traj::TrajectoryDataset& data,
                                                       std::size_t parts) {
  std::vector<traj::TrajectoryDataset> out(parts);
  const std::size_t per = (data.size() + parts - 1) / parts;
  for (std::size_t i = 0; i < data.size(); ++i) {
    traj::Trajectory copy = data[i];
    out[i / per].add(std::move(copy));
  }
  return out;
}

TEST(MergePhase1, EmptyAndSingle) {
  EXPECT_TRUE(merge_phase1_outputs({}).base_clusters.empty());

  const roadnet::RoadNetwork net = testutil::fig1_network();
  traj::TrajectoryDataset data;
  for (traj::Trajectory& tr : testutil::fig1_trajectories(net)) data.add(std::move(tr));
  const Fragmenter fragmenter(net);
  Phase1Output whole = fragmenter.build_base_clusters(data);
  std::vector<Phase1Output> one;
  one.push_back(fragmenter.build_base_clusters(data));
  const Phase1Output merged = merge_phase1_outputs(std::move(one));
  ASSERT_EQ(merged.base_clusters.size(), whole.base_clusters.size());
  for (std::size_t i = 0; i < merged.base_clusters.size(); ++i) {
    EXPECT_EQ(merged.base_clusters[i].sid(), whole.base_clusters[i].sid());
    EXPECT_EQ(merged.base_clusters[i].density(), whole.base_clusters[i].density());
  }
}

TEST(MergePhase1, CombinesSharedSegments) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  const Fragmenter fragmenter(net);
  // Shard 1: two trajectories on S1/S2; shard 2: one more on S1.
  traj::TrajectoryDataset shard1;
  shard1.add(testutil::make_path_trajectory(net, 1, {NodeId(0), NodeId(1), NodeId(2)}));
  shard1.add(testutil::make_path_trajectory(net, 2, {NodeId(0), NodeId(1), NodeId(2)}));
  traj::TrajectoryDataset shard2;
  shard2.add(testutil::make_path_trajectory(net, 3, {NodeId(0), NodeId(1)}));

  std::vector<Phase1Output> parts;
  parts.push_back(fragmenter.build_base_clusters(shard1));
  parts.push_back(fragmenter.build_base_clusters(shard2));
  const Phase1Output merged = merge_phase1_outputs(std::move(parts));
  ASSERT_EQ(merged.base_clusters.size(), 2u);  // S1 and S2
  EXPECT_EQ(merged.base_clusters[0].sid(), SegmentId(0));
  EXPECT_EQ(merged.base_clusters[0].density(), 3);
  EXPECT_EQ(merged.base_clusters[0].cardinality(), 3);
  EXPECT_EQ(merged.base_clusters[1].density(), 2);
  EXPECT_EQ(merged.num_fragments, 5u);
}

class ShardedEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedEquivalence, MatchesMonolithicRun) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(60, 33);

  Config cfg;
  cfg.refine.epsilon = 500.0;
  const Result whole = NeatClusterer(net, cfg).run(data);

  const std::vector<traj::TrajectoryDataset> shards = contiguous_shards(data, GetParam());
  std::vector<const traj::TrajectoryDataset*> shard_ptrs;
  for (const auto& s : shards) shard_ptrs.push_back(&s);
  const Result sharded = run_sharded(net, shard_ptrs, cfg);

  EXPECT_EQ(sharded.num_fragments, whole.num_fragments);
  EXPECT_EQ(sharded.num_gap_repairs, whole.num_gap_repairs);
  ASSERT_EQ(sharded.base_clusters.size(), whole.base_clusters.size());
  for (std::size_t i = 0; i < whole.base_clusters.size(); ++i) {
    EXPECT_EQ(sharded.base_clusters[i].sid(), whole.base_clusters[i].sid());
    EXPECT_EQ(sharded.base_clusters[i].density(), whole.base_clusters[i].density());
    EXPECT_EQ(sharded.base_clusters[i].participants(),
              whole.base_clusters[i].participants());
  }
  ASSERT_EQ(sharded.flow_clusters.size(), whole.flow_clusters.size());
  for (std::size_t i = 0; i < whole.flow_clusters.size(); ++i) {
    EXPECT_EQ(sharded.flow_clusters[i].route, whole.flow_clusters[i].route);
    EXPECT_EQ(sharded.flow_clusters[i].participants, whole.flow_clusters[i].participants);
  }
  ASSERT_EQ(sharded.final_clusters.size(), whole.final_clusters.size());
  for (std::size_t i = 0; i < whole.final_clusters.size(); ++i) {
    EXPECT_EQ(sharded.final_clusters[i].flows, whole.final_clusters[i].flows);
  }
  // The same flows go through the same Phase 3, so every work counter
  // reaches the Result too.
  EXPECT_EQ(sharded.sp_computations, whole.sp_computations);
  EXPECT_EQ(sharded.elb_pruned_pairs, whole.elb_pruned_pairs);
  EXPECT_EQ(sharded.lm_pruned_pairs, whole.lm_pruned_pairs);
  EXPECT_EQ(sharded.pairs_evaluated, whole.pairs_evaluated);
  EXPECT_EQ(sharded.settled_nodes, whole.settled_nodes);
  EXPECT_GT(whole.settled_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedEquivalence, ::testing::Values(1u, 2u, 3u, 7u));

TEST(Sharded, RejectsNullShard) {
  const roadnet::RoadNetwork net = testutil::line_network(2);
  Config cfg;
  EXPECT_THROW(run_sharded(net, {nullptr}, cfg), PreconditionError);
}

TEST(MergePhase1, RejectsDuplicateTrajectoryIdsAcrossShards) {
  // Regression: a trajectory id repeated across shards used to merge
  // silently, deflating trajectory cardinalities. Now it throws.
  const roadnet::RoadNetwork net = testutil::fig1_network();
  const NodeId n1(0), n2(1), n3(2), n4(3);

  traj::TrajectoryDataset shard_a;
  shard_a.add(testutil::make_path_trajectory(net, 1, {n1, n2, n3}));
  shard_a.add(testutil::make_path_trajectory(net, 2, {n1, n2}));
  traj::TrajectoryDataset shard_b;
  shard_b.add(testutil::make_path_trajectory(net, 2, {n4, n2, n3}));  // dup id 2

  const Fragmenter fragmenter(net);
  std::vector<Phase1Output> outputs;
  outputs.push_back(fragmenter.build_base_clusters(shard_a));
  outputs.push_back(fragmenter.build_base_clusters(shard_b));
  try {
    (void)merge_phase1_outputs(std::move(outputs));
    FAIL() << "duplicate trajectory id across shards was not rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("trajectory id 2"), std::string::npos)
        << e.what();
  }

  // The same duplicate through the full sharded pipeline.
  EXPECT_THROW(run_sharded(net, {&shard_a, &shard_b}, Config{}), PreconditionError);

  // Duplicates *within* one shard's clusters (one trajectory crossing many
  // segments) stay legal — only cross-shard repeats are errors.
  traj::TrajectoryDataset shard_c;
  shard_c.add(testutil::make_path_trajectory(net, 3, {n1, n2, n3}));
  std::vector<Phase1Output> ok;
  ok.push_back(fragmenter.build_base_clusters(shard_a));
  ok.push_back(fragmenter.build_base_clusters(shard_c));
  EXPECT_NO_THROW((void)merge_phase1_outputs(std::move(ok)));
}

TEST(Sharded, BaseModeStopsAfterMerge) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  traj::TrajectoryDataset data;
  for (traj::Trajectory& tr : testutil::fig1_trajectories(net)) data.add(std::move(tr));
  Config cfg;
  cfg.mode = Mode::kBase;
  const Result res = run_sharded(net, {&data}, cfg);
  EXPECT_FALSE(res.base_clusters.empty());
  EXPECT_TRUE(res.flow_clusters.empty());
}

}  // namespace
}  // namespace neat
