// Broad invariant sweep: the full NEAT pipeline across seeds × network
// topologies × operating modes, checking the cross-phase invariants that
// must hold for *any* input. This is the safety net that catches
// interactions the targeted unit tests cannot anticipate.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <unordered_map>

#include "core/clusterer.h"
#include "core/netflow.h"
#include "roadnet/generators.h"
#include "sim/mobility_simulator.h"

namespace neat {
namespace {

struct SweepCase {
  const char* topology;  // "lattice" | "radial"
  int seed;
};

std::string case_name(const SweepCase& c) {
  return std::string(c.topology) + "_seed" + std::to_string(c.seed);
}

// Without this gtest prints the raw bytes of the case (a string pointer and
// padding), which differ from run to run and leak into discovered test names.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << case_name(c); }

roadnet::RoadNetwork make_topology(const SweepCase& c) {
  if (std::string(c.topology) == "radial") {
    roadnet::RadialCityParams p;
    p.rings = 8;
    p.spokes = 12;
    p.ring_spacing_m = 180.0;
    p.seed = static_cast<std::uint64_t>(c.seed) + 7;
    return roadnet::make_radial_city(p);
  }
  roadnet::CityParams p;
  p.rows = 18;
  p.cols = 18;
  p.spacing_m = 125.0;
  p.oneway_probability = 0.05;
  p.seed = static_cast<std::uint64_t>(c.seed) + 7;
  return roadnet::make_city(p);
}

class PipelineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelineSweep, CrossPhaseInvariantsHold) {
  const SweepCase c = GetParam();
  const roadnet::RoadNetwork net = make_topology(c);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data =
      sim::MobilitySimulator(net, scfg).generate(70, static_cast<std::uint64_t>(c.seed));
  ASSERT_GT(data.size(), 0u);

  Config cfg;
  cfg.refine.epsilon = 900.0;
  const Result res = NeatClusterer(net, cfg).run(data);

  // --- Phase 1 invariants.
  std::unordered_map<std::int32_t, const BaseCluster*> cluster_of;
  std::size_t density_sum = 0;
  for (const BaseCluster& bc : res.base_clusters) {
    EXPECT_TRUE(cluster_of.emplace(bc.sid().value(), &bc).second)
        << "one base cluster per segment (Definition 2)";
    EXPECT_GT(bc.density(), 0);
    EXPECT_GE(bc.density(), bc.cardinality());
    density_sum += static_cast<std::size_t>(bc.density());
    EXPECT_TRUE(std::is_sorted(bc.participants().begin(), bc.participants().end()));
  }
  EXPECT_EQ(density_sum, res.num_fragments);
  // Per-fragment invariants, on each trajectory's fragment stream: every
  // fragment runs forward in time and lands in its segment's base cluster.
  const Fragmenter fragmenter(net);
  std::size_t stream_fragments = 0;
  for (const traj::Trajectory& tr : data) {
    for (const TFragment& f : fragmenter.fragment(tr)) {
      EXPECT_EQ(f.trid, tr.id());
      EXPECT_LE(f.entry.t, f.exit.t);
      const auto it = cluster_of.find(f.sid.value());
      ASSERT_NE(it, cluster_of.end()) << "fragment on segment " << f.sid.value();
      const std::vector<TrajectoryId>& participants = it->second->participants();
      EXPECT_TRUE(std::binary_search(participants.begin(), participants.end(), tr.id()));
      ++stream_fragments;
    }
  }
  EXPECT_EQ(stream_fragments, res.num_fragments);
  // Density ordering.
  for (std::size_t i = 1; i < res.base_clusters.size(); ++i) {
    EXPECT_GE(res.base_clusters[i - 1].density(), res.base_clusters[i].density());
  }

  // --- Phase 2 invariants.
  for (const auto* flows : {&res.flow_clusters, &res.filtered_flows}) {
    for (const FlowCluster& f : *flows) {
      ASSERT_FALSE(f.route.empty());
      ASSERT_EQ(f.junctions.size(), f.route.size() + 1);
      for (std::size_t i = 0; i < f.route.size(); ++i) {
        EXPECT_TRUE(net.is_endpoint(f.route[i], f.junctions[i]));
        EXPECT_TRUE(net.is_endpoint(f.route[i], f.junctions[i + 1]));
      }
      // Participants = union of member base-cluster participants.
      std::vector<TrajectoryId> expected;
      for (const std::size_t m : f.members) {
        expected = merge_participants(expected, res.base_clusters[m].participants());
      }
      EXPECT_EQ(f.participants, expected);
      // Chained members have positive netflow (Definition 8).
      for (std::size_t i = 1; i < f.members.size(); ++i) {
        EXPECT_GT(netflow(res.base_clusters[f.members[i - 1]],
                          res.base_clusters[f.members[i]]),
                  0);
      }
    }
  }

  // --- Phase 3 invariants.
  std::vector<std::size_t> assigned;
  for (const FinalCluster& fc : res.final_clusters) {
    EXPECT_FALSE(fc.flows.empty());
    EXPECT_TRUE(std::is_sorted(fc.flows.begin(), fc.flows.end()));
    assigned.insert(assigned.end(), fc.flows.begin(), fc.flows.end());
    double total = 0.0;
    for (const std::size_t fi : fc.flows) total += res.flow_clusters[fi].route_length;
    EXPECT_NEAR(total, fc.total_route_length, 1e-6);
  }
  std::sort(assigned.begin(), assigned.end());
  std::vector<std::size_t> all(res.flow_clusters.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  EXPECT_EQ(assigned, all);

  // --- Work accounting.
  EXPECT_GE(res.sp_computations, res.pairs_evaluated)
      << "every evaluated pair issues at least one search";
  EXPECT_LE(res.sp_computations, 2u * res.pairs_evaluated)
      << "batched endpoint mode runs at most two searches per evaluated pair";
}

TEST_P(PipelineSweep, ModesAgreeOnSharedPhases) {
  const SweepCase c = GetParam();
  const roadnet::RoadNetwork net = make_topology(c);
  const sim::SimConfig scfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data =
      sim::MobilitySimulator(net, scfg).generate(40, static_cast<std::uint64_t>(c.seed) + 99);

  Config base;
  base.mode = Mode::kBase;
  Config flow;
  flow.mode = Mode::kFlow;
  const Result rb = NeatClusterer(net, base).run(data);
  const Result rf = NeatClusterer(net, flow).run(data);
  ASSERT_EQ(rb.base_clusters.size(), rf.base_clusters.size());
  for (std::size_t i = 0; i < rb.base_clusters.size(); ++i) {
    EXPECT_EQ(rb.base_clusters[i].sid(), rf.base_clusters[i].sid());
    EXPECT_EQ(rb.base_clusters[i].density(), rf.base_clusters[i].density());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, PipelineSweep,
    ::testing::Values(SweepCase{"lattice", 1}, SweepCase{"lattice", 2},
                      SweepCase{"lattice", 3}, SweepCase{"radial", 1},
                      SweepCase{"radial", 2}, SweepCase{"radial", 3}),
    [](const auto& param_info) { return case_name(param_info.param); });

}  // namespace
}  // namespace neat
