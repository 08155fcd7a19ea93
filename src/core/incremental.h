// Incremental (online) NEAT clustering.
//
// The paper notes (§III-C) that the Phase 3 optimization "is especially
// effective for real time trajectory clustering where online clustering can
// be executed in an incremental and distributed manner. In particular, the
// first two phases of NEAT can be performed on each newly arrived set of
// trajectories. The new flow clusters are then merged with the available
// flow clusters to produce compact clustering results." This class
// implements exactly that scheme: per batch, Phases 1–2 run on the new
// trajectories only, the resulting flows join the accumulated flow set, and
// Phase 3 re-refines the accumulated flows.
#pragma once

#include <unordered_set>
#include <utility>
#include <vector>

#include "core/clusterer.h"

namespace neat {

/// Options specific to online operation.
struct IncrementalOptions {
  /// Sliding window: keep only flows discovered in the most recent
  /// `window_batches` batches (0 = unbounded, keep everything). Evicted
  /// flows drop out of the refinement — the live picture follows current
  /// traffic instead of the whole history.
  std::size_t window_batches{0};
};

/// Online NEAT over trajectory batches.
class IncrementalClusterer {
 public:
  /// Keeps a reference to the network; do not outlive it.
  IncrementalClusterer(const roadnet::RoadNetwork& net, Config config,
                       IncrementalOptions options = {});

  /// Processes one batch of newly arrived trajectories. Trajectory ids must
  /// be unique across all kept batches (throws neat::PreconditionError
  /// otherwise). A batch that throws is not kept and changes nothing, so
  /// its ids may be submitted again. Returns the refreshed final clusters
  /// (indices into flows()).
  const std::vector<FinalCluster>& add_batch(const traj::TrajectoryDataset& batch);

  /// All kept flow clusters accumulated so far, in arrival order.
  [[nodiscard]] const std::vector<FlowCluster>& flows() const { return flows_; }

  /// Final clusters over the accumulated flows (refreshed per batch).
  [[nodiscard]] const std::vector<FinalCluster>& clusters() const { return clusters_; }

  [[nodiscard]] std::size_t batches_processed() const { return batches_; }

  /// Deep copy of the current servable state (kept flows + final clusters),
  /// decoupled from this clusterer's lifetime. The snapshot-extraction hook
  /// for serving layers (serve::IngestService publishes the copy as an
  /// immutable serve::ClusterSnapshot while add_batch keeps mutating the
  /// live state).
  [[nodiscard]] std::pair<std::vector<FlowCluster>, std::vector<FinalCluster>>
  snapshot_state() const {
    return {flows_, clusters_};
  }

 private:
  const roadnet::RoadNetwork& net_;
  Config config_;
  IncrementalOptions options_;
  /// Persistent so landmark tables survive across batches.
  Refiner refiner_;
  std::vector<FlowCluster> flows_;
  std::vector<std::size_t> flow_batch_;  ///< Arrival batch index per flow.
  std::vector<FinalCluster> clusters_;
  std::unordered_set<TrajectoryId> seen_ids_;
  std::size_t batches_{0};
};

}  // namespace neat
