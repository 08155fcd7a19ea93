// Distributed (sharded) Phase 1 — the paper's §II-C deployment sketch.
//
// "The NEAT server also distributes trajectory datasets across multiple
// nodes in a cluster. These data nodes can perform some data preprocessing
// tasks." Phase 1 is exactly that preprocessing: t-fragment extraction and
// base-cluster formation are per-trajectory local, so data nodes can each
// run Phase 1 on their shard and ship back only base clusters — orders of
// magnitude smaller than raw trajectories. The coordinator merges the
// shard outputs (base clusters keyed by segment) and runs Phases 2-3.
//
// merge_phase1_outputs is exact: merging the shard outputs of a dataset
// partition reproduces the monolithic Phase 1 output bit for bit.
#pragma once

#include <vector>

#include "core/clusterer.h"
#include "core/fragmenter.h"
#include "roadnet/road_network.h"
#include "traj/dataset.h"

namespace neat {

/// Merges per-shard Phase 1 outputs into one, combining base clusters of
/// the same segment (densities add up, participant lists unite) and
/// re-sorting by (density desc, sid asc), so shards that partition a
/// dataset reproduce the monolithic output exactly. Trajectory ids must not
/// repeat across shards — a duplicate would silently deflate trajectory
/// cardinalities (two shards' "different" trajectories collapsing into one
/// participant), so the merge checks and throws neat::PreconditionError
/// naming the offending id.
[[nodiscard]] Phase1Output merge_phase1_outputs(std::vector<Phase1Output> shards);

/// Runs the full sharded pipeline: Phase 1 per shard (sequentially here —
/// in a real deployment each shard runs on its own data node), merge, then
/// Phases 2-3 per `config` on the coordinator. Results are identical to
/// NeatClusterer::run on the concatenated dataset.
[[nodiscard]] Result run_sharded(const roadnet::RoadNetwork& net,
                                 const std::vector<const traj::TrajectoryDataset*>& shards,
                                 const Config& config);

}  // namespace neat
