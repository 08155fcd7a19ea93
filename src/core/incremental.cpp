#include "core/incremental.h"

#include "common/error.h"
#include "common/string_util.h"
#include "obs/log/log.h"

namespace neat {

IncrementalClusterer::IncrementalClusterer(const roadnet::RoadNetwork& net, Config config,
                                           IncrementalOptions options)
    : net_(net), config_(config), options_(options), refiner_(net, config.refine) {
  // Online operation always needs all three phases.
  config_.mode = Mode::kOpt;
}

const std::vector<FinalCluster>& IncrementalClusterer::add_batch(
    const traj::TrajectoryDataset& batch) {
  // Every step that can throw runs before any member changes, so a rejected
  // batch leaves no trace: its ids stay free and its flows never join.
  std::unordered_set<TrajectoryId> batch_ids;
  for (const traj::Trajectory& tr : batch) {
    NEAT_EXPECT(!seen_ids_.contains(tr.id()),
                str_cat("trajectory id ", tr.id().value(),
                        " appeared in an earlier batch; ids must be globally unique"));
    NEAT_EXPECT(batch_ids.insert(tr.id()).second,
                str_cat("trajectory id ", tr.id().value(), " repeats within the batch"));
  }

  // Phases 1–2 on the new batch only.
  Config batch_cfg = config_;
  batch_cfg.mode = Mode::kFlow;
  const NeatClusterer clusterer(net_, batch_cfg);
  Result res = clusterer.run(batch);

  // Sliding window: keep only flows from the last `window_batches` batches.
  // Flows are kept in arrival order, so the evicted ones are a prefix.
  std::size_t evicted = 0;
  if (options_.window_batches > 0 && batches_ + 1 > options_.window_batches) {
    const std::size_t oldest_kept = batches_ + 1 - options_.window_batches;
    while (evicted < flow_batch_.size() && flow_batch_[evicted] < oldest_kept) ++evicted;
  }
  std::vector<FlowCluster> flows(flows_.begin() + static_cast<std::ptrdiff_t>(evicted),
                                 flows_.end());
  std::vector<std::size_t> flow_batch(
      flow_batch_.begin() + static_cast<std::ptrdiff_t>(evicted), flow_batch_.end());
  // Member/base-cluster indices refer to the batch-local Phase 1 output,
  // which is not retained; clear them so stale indices cannot be misused.
  for (FlowCluster& f : res.flow_clusters) {
    f.members.clear();
    flows.push_back(std::move(f));
    flow_batch.push_back(batches_);
  }

  // Phase 3 over the (windowed) accumulated flow set. The refiner member
  // persists across batches so the landmark tables (when enabled) are built
  // once, not per batch.
  Phase3Output p3 = refiner_.refine(flows);
  if (evicted > 0) {
    NEAT_LOG(kInfo, "core")
        .msg("sliding window evicted flows")
        .kv("evicted", evicted)
        .kv("kept", flows.size())
        .kv("window_batches", options_.window_batches);
  }

  // Keep the batch.
  seen_ids_.merge(batch_ids);
  flows_ = std::move(flows);
  flow_batch_ = std::move(flow_batch);
  clusters_ = std::move(p3.clusters);
  ++batches_;
  return clusters_;
}

}  // namespace neat
