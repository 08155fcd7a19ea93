// Tests for the parallel Phase 1 path: bit-identical results to the serial
// run for any thread count, through both the Fragmenter API and the full
// clusterer, and worker failures reported as exceptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/error.h"
#include "common/parallel_for.h"
#include "core/clusterer.h"
#include "core/fragmenter.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"
#include "test_util.h"

namespace neat {
namespace {

using FragmentStreams = std::vector<std::vector<TFragment>>;

void expect_identical(const Phase1Output& a, const Phase1Output& b) {
  EXPECT_EQ(a.num_fragments, b.num_fragments);
  EXPECT_EQ(a.num_gap_repairs, b.num_gap_repairs);
  ASSERT_EQ(a.base_clusters.size(), b.base_clusters.size());
  for (std::size_t i = 0; i < a.base_clusters.size(); ++i) {
    const BaseCluster& ca = a.base_clusters[i];
    const BaseCluster& cb = b.base_clusters[i];
    EXPECT_EQ(ca.sid(), cb.sid());
    EXPECT_EQ(ca.density(), cb.density());
    EXPECT_EQ(ca.participants(), cb.participants());
  }
}

void expect_identical(const FragmentStreams& a, const FragmentStreams& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size()) << "trajectory " << t;
    for (std::size_t f = 0; f < a[t].size(); ++f) {
      EXPECT_EQ(a[t][f].trid, b[t][f].trid);
      EXPECT_EQ(a[t][f].entry.pos, b[t][f].entry.pos);
      EXPECT_EQ(a[t][f].exit.pos, b[t][f].exit.pos);
      EXPECT_EQ(a[t][f].num_samples, b[t][f].num_samples);
    }
  }
}

/// Every trajectory's Fragmenter::fragment stream, computed across
/// `threads` workers the way Phase 1's workers compute them.
FragmentStreams fragment_streams(const Fragmenter& fragmenter,
                                 const traj::TrajectoryDataset& data, unsigned threads) {
  FragmentStreams out(data.size());
  parallel_for(data.size(), threads, 1, [&](unsigned, ChunkCursor& cursor) {
    while (const std::optional<IndexRange> r = cursor.next()) {
      for (std::size_t i = r->begin; i < r->end; ++i) out[i] = fragmenter.fragment(data[i]);
    }
  });
  return out;
}

/// The base clusters must count exactly the streams' fragments: per
/// segment, the density is its fragment count and the participants are
/// the distinct trajectories among them.
void expect_counts_streams(const Phase1Output& out, const FragmentStreams& streams) {
  std::map<SegmentId, std::pair<int, std::vector<TrajectoryId>>> expected;
  std::size_t fragments = 0;
  for (const std::vector<TFragment>& stream : streams) {
    for (const TFragment& f : stream) {
      auto& [density, participants] = expected[f.sid];
      ++density;
      participants.push_back(f.trid);
      ++fragments;
    }
  }
  EXPECT_EQ(out.num_fragments, fragments);
  ASSERT_EQ(out.base_clusters.size(), expected.size());
  for (const BaseCluster& c : out.base_clusters) {
    auto& [density, participants] = expected.at(c.sid());
    std::sort(participants.begin(), participants.end());
    participants.erase(std::unique(participants.begin(), participants.end()),
                       participants.end());
    EXPECT_EQ(c.density(), density) << "segment " << c.sid().value();
    EXPECT_EQ(c.participants(), participants) << "segment " << c.sid().value();
  }
}

class ParallelPhase1 : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelPhase1, IdenticalToSerial) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 3, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(60, 15);
  const Fragmenter fragmenter(net);
  const Phase1Output serial = fragmenter.build_base_clusters(data, 1);
  const Phase1Output parallel = fragmenter.build_base_clusters(data, GetParam());
  expect_identical(serial, parallel);
  const FragmentStreams streams = fragment_streams(fragmenter, data, 1);
  expect_identical(streams, fragment_streams(fragmenter, data, GetParam()));
  expect_counts_streams(parallel, streams);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelPhase1,
                         ::testing::Values(0u, 2u, 3u, 8u, 1u, 64u));

TEST(ParallelPhase1, MoreThreadsThanTrajectories) {
  const roadnet::RoadNetwork net = roadnet::make_grid(5, 5, 100.0);
  sim::SimConfig cfg;
  cfg.hotspots = {NodeId(0)};
  cfg.destinations = {NodeId(24)};
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, cfg).generate(3, 2);
  const Fragmenter fragmenter(net);
  expect_identical(fragmenter.build_base_clusters(data, 1),
                   fragmenter.build_base_clusters(data, 64));
  expect_identical(fragment_streams(fragmenter, data, 1), fragment_streams(fragmenter, data, 64));
}

// The batch seam: the last trajectory of the first Phase 1 batch and the
// first of the second each drive out and back along a segment no other
// trajectory uses, so each such segment's base cluster counts two fragments
// of one participant. One more trajectory skips a segment and needs a gap
// repair. Every thread count must match the serial build and fragment().
TEST(ParallelPhase1, RevisitsAndGapRepairAcrossTheBatchSeam) {
  constexpr int kCols = 6;
  const roadnet::RoadNetwork net = roadnet::make_grid(4, kCols, 100.0);
  const auto node = [](int row, int col) { return NodeId(row * kCols + col); };
  constexpr std::size_t kSeam = Fragmenter::kBatchSize;  // first index of batch 2
  const std::vector<NodeId> out_and_back[2] = {
      {node(3, 0), node(3, 1), node(3, 2), node(3, 1), node(3, 0)},
      {node(3, 5), node(3, 4), node(3, 3), node(3, 4), node(3, 5)}};
  traj::TrajectoryDataset data;
  for (std::size_t i = 0; i < kSeam + 40; ++i) {
    const auto trid = static_cast<std::int64_t>(1000 + i);
    if (i == kSeam - 1 || i == kSeam) {
      data.add(testutil::make_path_trajectory(net, trid, out_and_back[i - (kSeam - 1)]));
    } else if (i == kSeam + 1) {
      // Samples on (0,0)-(0,1) and (0,2)-(0,3): (0,1)-(0,2) is repaired.
      traj::Trajectory gap{TrajectoryId(trid)};
      gap.append(traj::Location{testutil::find_segment(net, node(0, 0), node(0, 1)),
                                Point{50.0, 0.0}, 0.0, false});
      gap.append(traj::Location{testutil::find_segment(net, node(0, 2), node(0, 3)),
                                Point{250.0, 0.0}, 20.0, false});
      data.add(std::move(gap));
    } else {
      // Three segments along rows 0-2; row 3 is left to the two above.
      const int row = static_cast<int>(i % 3);
      const int col = static_cast<int>(i % 4);
      data.add(testutil::make_path_trajectory(
          net, trid, {node(row, col), node(row, col + 1), node(row, col + 2)}));
    }
  }

  const Fragmenter fragmenter(net);
  const Phase1Output serial = fragmenter.build_base_clusters(data, 1);
  EXPECT_EQ(serial.num_gap_repairs, 1u);
  for (const std::vector<NodeId>& path : out_and_back) {
    const SegmentId revisited = testutil::find_segment(net, path[0], path[1]);
    const auto it = std::find_if(serial.base_clusters.begin(), serial.base_clusters.end(),
                                 [&](const BaseCluster& c) { return c.sid() == revisited; });
    ASSERT_NE(it, serial.base_clusters.end()) << "segment " << revisited.value();
    EXPECT_EQ(it->density(), 2) << "segment " << revisited.value();
    EXPECT_EQ(it->cardinality(), 1) << "segment " << revisited.value();
  }
  const FragmentStreams streams = fragment_streams(fragmenter, data, 1);
  expect_counts_streams(serial, streams);
  for (const unsigned threads : {2u, 3u, 8u}) {
    const Phase1Output parallel = fragmenter.build_base_clusters(data, threads);
    expect_identical(serial, parallel);
    expect_counts_streams(parallel, streams);
  }
}

TEST(ParallelPhase1, EmptyDataset) {
  const roadnet::RoadNetwork net = roadnet::make_grid(4, 4, 100.0);
  const Fragmenter fragmenter(net);
  const Phase1Output out = fragmenter.build_base_clusters(traj::TrajectoryDataset{}, 4);
  EXPECT_TRUE(out.base_clusters.empty());
  EXPECT_EQ(out.num_fragments, 0u);
}

// Regression: a worker that hit a sample on a missing segment used to let
// the exception escape its thread, and the process aborted. Every thread
// count must report it to the caller instead.
TEST(ParallelPhase1, UnknownSegmentThrowsAtAnyThreadCount) {
  const roadnet::RoadNetwork net = roadnet::make_grid(6, 6, 100.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 2);
  const traj::TrajectoryDataset good = sim::MobilitySimulator(net, scfg).generate(40, 3);
  ASSERT_GT(good.size(), 17u);
  traj::TrajectoryDataset data;
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (i != 17) {
      data.add(good[i]);
      continue;
    }
    std::vector<traj::Location> points = good[i].points();
    points[points.size() / 2].sid = SegmentId(999999);
    data.add(traj::Trajectory(good[i].id(), std::move(points)));
  }
  const Fragmenter fragmenter(net);
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW((void)fragmenter.build_base_clusters(data, threads), NotFoundError)
        << threads << " threads";
  }
}

TEST(ParallelPhase1, FullPipelineUnchanged) {
  const roadnet::RoadNetwork net = roadnet::make_grid(10, 10, 110.0);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data = sim::MobilitySimulator(net, scfg).generate(50, 19);
  Config serial_cfg;
  serial_cfg.refine.epsilon = 500.0;
  Config parallel_cfg = serial_cfg;
  parallel_cfg.phase1_threads = 4;
  const Result a = NeatClusterer(net, serial_cfg).run(data);
  const Result b = NeatClusterer(net, parallel_cfg).run(data);
  ASSERT_EQ(a.flow_clusters.size(), b.flow_clusters.size());
  for (std::size_t i = 0; i < a.flow_clusters.size(); ++i) {
    EXPECT_EQ(a.flow_clusters[i].route, b.flow_clusters[i].route);
    EXPECT_EQ(a.flow_clusters[i].participants, b.flow_clusters[i].participants);
  }
  ASSERT_EQ(a.final_clusters.size(), b.final_clusters.size());
  for (std::size_t i = 0; i < a.final_clusters.size(); ++i) {
    EXPECT_EQ(a.final_clusters[i].flows, b.final_clusters[i].flows);
  }
}

}  // namespace
}  // namespace neat
