// Top-level NEAT clustering API (paper §II-C).
//
// Usage:
//   neat::Config cfg;                       // defaults: opt-NEAT, maxFlow weights
//   neat::NeatClusterer clusterer(net, cfg);
//   neat::Result res = clusterer.run(dataset);
//
// The paper exposes three operating points which differ in how many phases
// run: base-NEAT (Phase 1), flow-NEAT (Phases 1–2), opt-NEAT (all three).
// Result always carries the outputs of every executed phase plus per-phase
// wall-clock timings and the Phase 3 shortest-path instrumentation.
#pragma once

#include <functional>

#include "core/base_cluster.h"
#include "core/flow_builder.h"
#include "core/fragmenter.h"
#include "core/refiner.h"
#include "roadnet/road_network.h"
#include "traj/dataset.h"

namespace neat {

/// Which NEAT phases to run.
enum class Mode {
  kBase,  ///< Phase 1 only: base clusters.
  kFlow,  ///< Phases 1–2: flow clusters.
  kOpt,   ///< Phases 1–3: refined trajectory clusters.
};

/// Full NEAT configuration.
struct Config {
  Mode mode{Mode::kOpt};
  FlowConfig flow;      ///< Phase 2 parameters (SF weights, β, minCard).
  RefineConfig refine;  ///< Phase 3 parameters (ε, ELB, minPts).
  /// Worker threads for Phase 1 fragment extraction (trajectories are
  /// independent). Results are identical for any value; 0/1 = serial.
  unsigned phase1_threads{1};
};

/// Wall-clock seconds spent in each phase.
struct PhaseTiming {
  double phase1_s{0.0};
  double phase2_s{0.0};
  double phase3_s{0.0};

  [[nodiscard]] double total_s() const { return phase1_s + phase2_s + phase3_s; }
};

/// Output of a NEAT run. Vectors for phases that did not run are empty.
struct Result {
  // Phase 1.
  std::vector<BaseCluster> base_clusters;  ///< Sorted by density desc.
  std::size_t num_fragments{0};
  std::size_t num_gap_repairs{0};
  // Phase 2.
  std::vector<FlowCluster> flow_clusters;      ///< Kept flows.
  std::vector<FlowCluster> filtered_flows;     ///< Below the minCard threshold.
  double effective_min_card{0.0};
  // Phase 3.
  std::vector<FinalCluster> final_clusters;
  std::size_t sp_computations{0};
  std::size_t elb_pruned_pairs{0};
  std::size_t lm_pruned_pairs{0};
  std::size_t pairs_evaluated{0};
  std::size_t settled_nodes{0};

  PhaseTiming timing;
};

/// Runs the NEAT three-phase framework over one road network.
class NeatClusterer {
 public:
  /// Keeps a reference to the network; do not outlive it. Configuration is
  /// validated eagerly (throws neat::PreconditionError).
  NeatClusterer(const roadnet::RoadNetwork& net, Config config);

  /// Clusters a dataset. Deterministic: identical inputs yield identical
  /// results (the paper's design guarantee from the dense-core start order
  /// and the longest-route-first refinement order).
  [[nodiscard]] Result run(const traj::TrajectoryDataset& data) const;

  /// Out-of-core variant: Phase 1 streams `source` in bounded-memory
  /// batches (see Fragmenter); Phases 2-3 run on its base clusters.
  /// Results are bit-identical to run() on the materialized dataset.
  [[nodiscard]] Result run(TrajectorySource& source) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// Shared run body: `phase1` produces the Phase 1 output inside the
  /// neat.phase1 span; Phases 2-3 follow per `config_`.
  [[nodiscard]] Result run_impl(std::size_t num_trajectories,
                                const std::function<Phase1Output(const Fragmenter&)>& phase1) const;

  const roadnet::RoadNetwork& net_;
  Config config_;
};

}  // namespace neat
