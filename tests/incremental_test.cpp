// Tests for online/incremental NEAT clustering over trajectory batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/incremental.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"
#include "test_util.h"

namespace neat {
namespace {

// Splits a dataset into `parts` round-robin batches.
std::vector<traj::TrajectoryDataset> split_batches(const traj::TrajectoryDataset& data,
                                                   std::size_t parts) {
  std::vector<traj::TrajectoryDataset> out(parts);
  for (std::size_t i = 0; i < data.size(); ++i) {
    traj::Trajectory copy = data[i];
    out[i % parts].add(std::move(copy));
  }
  return out;
}

TEST(Incremental, AccumulatesFlowsAcrossBatches) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(60, 4);
  const auto batches = split_batches(data, 3);

  Config cfg;
  cfg.refine.epsilon = 500.0;
  IncrementalClusterer inc(net, cfg);
  std::size_t prev_flows = 0;
  for (const auto& batch : batches) {
    const auto& clusters = inc.add_batch(batch);
    EXPECT_GE(inc.flows().size(), prev_flows);
    prev_flows = inc.flows().size();
    // Every final cluster references valid accumulated flows.
    for (const FinalCluster& c : clusters) {
      for (const std::size_t fi : c.flows) EXPECT_LT(fi, inc.flows().size());
    }
  }
  EXPECT_EQ(inc.batches_processed(), 3u);
  EXPECT_FALSE(inc.flows().empty());
  EXPECT_FALSE(inc.clusters().empty());
}

TEST(Incremental, ClustersPartitionAccumulatedFlows) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(40, 8);
  const auto batches = split_batches(data, 2);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalClusterer inc(net, cfg);
  for (const auto& batch : batches) inc.add_batch(batch);

  std::vector<std::size_t> seen;
  for (const FinalCluster& c : inc.clusters()) {
    for (const std::size_t fi : c.flows) seen.push_back(fi);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::size_t> want(inc.flows().size());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
  EXPECT_EQ(seen, want);
}

TEST(Incremental, RejectsDuplicateTrajectoryIdsAcrossBatches) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  traj::TrajectoryDataset batch1;
  batch1.add(testutil::make_path_trajectory(net, 1, {NodeId(0), NodeId(1), NodeId(2)}));
  traj::TrajectoryDataset batch2;
  batch2.add(testutil::make_path_trajectory(net, 1, {NodeId(0), NodeId(1)}));

  Config cfg;
  IncrementalClusterer inc(net, cfg);
  inc.add_batch(batch1);
  EXPECT_THROW(inc.add_batch(batch2), PreconditionError);
}

// The message of the neat::Error add_batch throws on `batch`; empty when
// the batch is kept.
std::string rejection(IncrementalClusterer& inc, const traj::TrajectoryDataset& batch) {
  try {
    inc.add_batch(batch);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// What a rejected batch must leave as it was: the kept flows (route and
// participants), the final clusters and the batch count.
struct ClustererState {
  std::vector<std::vector<SegmentId>> routes;
  std::vector<std::vector<TrajectoryId>> participants;
  std::vector<std::vector<std::size_t>> clusters;
  std::size_t batches{0};

  explicit ClustererState(const IncrementalClusterer& inc) : batches(inc.batches_processed()) {
    for (const FlowCluster& f : inc.flows()) {
      routes.push_back(f.route);
      participants.push_back(f.participants);
    }
    for (const FinalCluster& c : inc.clusters()) clusters.push_back(c.flows);
  }
  bool operator==(const ClustererState&) const = default;
};

TEST(Incremental, RejectedBatchLeavesNoTrace) {
  const roadnet::RoadNetwork net = testutil::fig1_network();
  const NodeId n1(0), n2(1), n3(2), n5(4);
  Config cfg;
  cfg.refine.epsilon = 1000.0;
  IncrementalClusterer inc(net, cfg);
  traj::TrajectoryDataset first;
  first.add(testutil::make_path_trajectory(net, 1, {n1, n2, n3}));
  ASSERT_EQ(rejection(inc, first), "");
  const ClustererState kept(inc);

  // Id 1 is taken, so the batch {2, 1} is rejected as a whole.
  traj::TrajectoryDataset taken;
  taken.add(testutil::make_path_trajectory(net, 2, {n1, n2, n5}));
  taken.add(testutil::make_path_trajectory(net, 1, {n1, n2}));
  std::string why = rejection(inc, taken);
  EXPECT_NE(why.find("trajectory id 1 appeared in an earlier batch"), std::string::npos) << why;
  EXPECT_TRUE(ClustererState(inc) == kept);

  // Trajectory 7 strays onto a segment the network does not have, so
  // Phase 1 rejects its batch.
  traj::TrajectoryDataset stray;
  traj::Trajectory seven = testutil::make_path_trajectory(net, 7, {n1, n2, n5});
  seven.append(traj::Location{SegmentId(999), net.node(n5).pos, 100.0, false});
  stray.add(std::move(seven));
  why = rejection(inc, stray);
  EXPECT_NE(why.find("no such segment: 999"), std::string::npos) << why;
  EXPECT_TRUE(ClustererState(inc) == kept);

  // Neither rejected batch kept an id: 2 and the corrected 7 are free.
  traj::TrajectoryDataset retry;
  retry.add(testutil::make_path_trajectory(net, 2, {n1, n2, n5}));
  retry.add(testutil::make_path_trajectory(net, 7, {n2, n3}));
  EXPECT_EQ(rejection(inc, retry), "");
  EXPECT_EQ(inc.batches_processed(), 2u);
  EXPECT_GT(inc.flows().size(), kept.routes.size());
}

TEST(Incremental, SingleBatchMatchesFlowCountOfBatchRun) {
  // With one batch, incremental flows equal a flow-NEAT run on that batch.
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(30, 5);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalClusterer inc(net, cfg);
  inc.add_batch(data);

  Config flow_cfg = cfg;
  flow_cfg.mode = Mode::kFlow;
  const Result batch_run = NeatClusterer(net, flow_cfg).run(data);
  ASSERT_EQ(inc.flows().size(), batch_run.flow_clusters.size());
  for (std::size_t i = 0; i < inc.flows().size(); ++i) {
    EXPECT_EQ(inc.flows()[i].route, batch_run.flow_clusters[i].route);
  }
}

TEST(IncrementalWindow, EvictsFlowsOutsideWindow) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const sim::MobilitySimulator simulator(net, scfg);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalOptions opts;
  opts.window_batches = 2;
  IncrementalClusterer windowed(net, cfg, opts);
  IncrementalClusterer unbounded(net, cfg);

  for (int batch = 0; batch < 5; ++batch) {
    const traj::TrajectoryDataset raw =
        simulator.generate(25, 100 + static_cast<std::uint64_t>(batch));
    traj::TrajectoryDataset tagged_a;
    traj::TrajectoryDataset tagged_b;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const auto id = TrajectoryId(batch * 1000 + static_cast<std::int64_t>(i));
      tagged_a.add(traj::Trajectory(id, raw[i].points()));
      tagged_b.add(traj::Trajectory(id, raw[i].points()));
    }
    windowed.add_batch(tagged_a);
    unbounded.add_batch(tagged_b);
  }
  // The window holds at most the flows of the last two batches.
  EXPECT_LT(windowed.flows().size(), unbounded.flows().size());
  // Final clusters still partition the windowed flow set.
  std::vector<std::size_t> seen;
  for (const FinalCluster& c : windowed.clusters()) {
    seen.insert(seen.end(), c.flows.begin(), c.flows.end());
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::size_t> want(windowed.flows().size());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
  EXPECT_EQ(seen, want);
}

TEST(IncrementalWindow, EvictedBatchesVanishFromRefinedResult) {
  // Flows of batches that slid out of the window must disappear from the
  // *refined* result too: no final cluster may keep referencing an evicted
  // batch's trajectories.
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const sim::MobilitySimulator simulator(net, scfg);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalOptions opts;
  opts.window_batches = 2;
  IncrementalClusterer inc(net, cfg, opts);

  constexpr int kBatches = 5;
  for (int batch = 0; batch < kBatches; ++batch) {
    const traj::TrajectoryDataset raw =
        simulator.generate(25, 700 + static_cast<std::uint64_t>(batch));
    traj::TrajectoryDataset tagged;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      // Ids encode the batch: batch b owns [b*1000, b*1000 + 999].
      tagged.add(traj::Trajectory(TrajectoryId(batch * 1000 + static_cast<std::int64_t>(i)),
                                  raw[i].points()));
    }
    const std::vector<FinalCluster>& refined = inc.add_batch(tagged);

    // Only the last `window_batches` batches may contribute participants.
    const int oldest_kept = std::max(0, batch - static_cast<int>(opts.window_batches) + 1);
    for (const FlowCluster& f : inc.flows()) {
      for (const TrajectoryId trid : f.participants) {
        EXPECT_GE(trid.value() / 1000, oldest_kept)
            << "flow kept a participant of evicted batch " << trid.value() / 1000
            << " after batch " << batch;
      }
    }
    for (const FinalCluster& c : refined) {
      for (const TrajectoryId trid : c.participants) {
        EXPECT_GE(trid.value() / 1000, oldest_kept)
            << "refined cluster kept a participant of evicted batch "
            << trid.value() / 1000 << " after batch " << batch;
      }
    }
    // And the window is not trivially empty: the current batch contributes.
    bool current_batch_present = false;
    for (const FlowCluster& f : inc.flows()) {
      for (const TrajectoryId trid : f.participants) {
        if (trid.value() / 1000 == batch) current_batch_present = true;
      }
    }
    EXPECT_TRUE(current_batch_present) << "after batch " << batch;
  }
}

TEST(IncrementalWindow, WindowOfOneTracksOnlyLatestBatch) {
  const roadnet::RoadNetwork net = roadnet::make_grid(8, 8, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const sim::MobilitySimulator simulator(net, scfg);

  Config cfg;
  cfg.refine.epsilon = 400.0;
  IncrementalOptions opts;
  opts.window_batches = 1;
  IncrementalClusterer inc(net, cfg, opts);

  std::size_t last_batch_flows = 0;
  for (int batch = 0; batch < 3; ++batch) {
    const traj::TrajectoryDataset raw =
        simulator.generate(20, 300 + static_cast<std::uint64_t>(batch));
    traj::TrajectoryDataset tagged;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      tagged.add(traj::Trajectory(TrajectoryId(batch * 1000 + static_cast<std::int64_t>(i)),
                                  raw[i].points()));
    }
    // Flows of this batch alone, for comparison.
    Config flow_cfg = cfg;
    flow_cfg.mode = Mode::kFlow;
    last_batch_flows = NeatClusterer(net, flow_cfg).run(tagged).flow_clusters.size();
    inc.add_batch(tagged);
  }
  EXPECT_EQ(inc.flows().size(), last_batch_flows);
}

}  // namespace
}  // namespace neat
