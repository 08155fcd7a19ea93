// Golden-file end-to-end regression test: a committed fixture network and
// trajectory set run through the full three-phase pipeline, and the servable
// result (result_io snapshot format) must match the committed golden output
// byte for byte. Any change to fragmenting, flow building, refinement order,
// pruning or serialization that alters the outcome shows up as a diff here.
//
// To regenerate after an *intentional* behaviour change:
//   NEAT_REGEN_GOLDEN=1 ./golden_test
// then review and commit the updated tests/data/golden_result.csv.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/clusterer.h"
#include "core/result_io.h"
#include "roadnet/io.h"
#include "traj/io.h"

namespace neat {
namespace {

std::string data_path(const std::string& name) {
  return std::string(NEAT_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The configuration frozen into the golden file. Landmarks and threading are
// on — by design they must not change the output, so the golden file guards
// the acceleration layer too.
Config golden_config() {
  Config cfg;
  cfg.refine.epsilon = 400.0;
  cfg.refine.landmarks = 4;
  cfg.refine.threads = 2;
  cfg.flow.min_card = 1.0;
  return cfg;
}

TEST(Golden, EndToEndSnapshotMatchesCommittedOutput) {
  const roadnet::RoadNetwork net = roadnet::load_network(data_path("golden_network.csv"));
  const traj::TrajectoryDataset data =
      traj::load_dataset(data_path("golden_trajectories.csv"));
  ASSERT_GT(net.segment_count(), 0u);
  ASSERT_GT(data.size(), 0u);

  const Result res = NeatClusterer(net, golden_config()).run(data);
  ASSERT_FALSE(res.flow_clusters.empty());
  ASSERT_FALSE(res.final_clusters.empty());

  ClusteringSnapshot snap;
  snap.flows = res.flow_clusters;
  snap.final_clusters = res.final_clusters;
  std::ostringstream actual;
  save_snapshot(snap, actual);

  const std::string golden_file = data_path("golden_result.csv");
  if (std::getenv("NEAT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_file, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << golden_file;
    out << actual.str();
    GTEST_SKIP() << "regenerated " << golden_file << "; review and commit it";
  }

  EXPECT_EQ(actual.str(), read_file(golden_file))
      << "pipeline output drifted from the committed golden file; if the "
         "change is intentional, regenerate with NEAT_REGEN_GOLDEN=1";
}

TEST(Golden, SnapshotRoundTripsThroughResultIo) {
  const roadnet::RoadNetwork net = roadnet::load_network(data_path("golden_network.csv"));
  const traj::TrajectoryDataset data =
      traj::load_dataset(data_path("golden_trajectories.csv"));
  const Result res = NeatClusterer(net, golden_config()).run(data);

  ClusteringSnapshot snap;
  snap.flows = res.flow_clusters;
  snap.final_clusters = res.final_clusters;
  std::stringstream io;
  save_snapshot(snap, io);
  const ClusteringSnapshot back = load_snapshot(io);
  ASSERT_EQ(back.flows.size(), snap.flows.size());
  ASSERT_EQ(back.final_clusters.size(), snap.final_clusters.size());
  for (std::size_t i = 0; i < snap.final_clusters.size(); ++i) {
    EXPECT_EQ(back.final_clusters[i].flows, snap.final_clusters[i].flows);
  }
}

}  // namespace
}  // namespace neat
