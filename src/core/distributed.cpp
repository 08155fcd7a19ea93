#include "core/distributed.h"

#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace neat {

Phase1Output merge_phase1_outputs(std::vector<Phase1Output> shards) {
  // A trajectory id appearing in two shards means the shards do not
  // partition the dataset; merging would silently collapse the two
  // trajectories' fragments into one participant.
  {
    std::unordered_set<TrajectoryId> earlier_shards;
    std::unordered_set<TrajectoryId> this_shard;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      this_shard.clear();
      for (const BaseCluster& c : shards[s].base_clusters) {
        for (const TrajectoryId trid : c.participants()) this_shard.insert(trid);
      }
      for (const TrajectoryId trid : this_shard) {
        NEAT_EXPECT(!earlier_shards.contains(trid),
                    str_cat("trajectory id ", trid.value(), " appears in shard ", s,
                            " and an earlier shard; shards must partition the dataset"));
      }
      earlier_shards.merge(this_shard);
    }
  }

  Phase1Output merged;
  // Segment id -> index in the merged cluster vector.
  std::vector<BaseCluster> clusters;
  std::unordered_map<std::int32_t, std::size_t> index_of;

  for (Phase1Output& shard : shards) {
    merged.num_fragments += shard.num_fragments;
    merged.num_gap_repairs += shard.num_gap_repairs;
    for (BaseCluster& c : shard.base_clusters) {
      const auto [it, inserted] = index_of.emplace(c.sid().value(), clusters.size());
      if (inserted) {
        clusters.push_back(std::move(c));
      } else {
        clusters[it->second].merge(c);
      }
    }
  }
  sort_by_density(clusters);
  merged.base_clusters = std::move(clusters);
  return merged;
}

Result run_sharded(const roadnet::RoadNetwork& net,
                   const std::vector<const traj::TrajectoryDataset*>& shards,
                   const Config& config) {
  for (const auto* shard : shards) {
    NEAT_EXPECT(shard != nullptr, "run_sharded: null shard");
  }
  Result result;
  Stopwatch watch;

  // Phase 1, one shard at a time ("on the data nodes").
  const Fragmenter fragmenter(net);
  std::vector<Phase1Output> outputs;
  outputs.reserve(shards.size());
  for (const auto* shard : shards) {
    outputs.push_back(fragmenter.build_base_clusters(*shard, config.phase1_threads));
  }
  Phase1Output merged = merge_phase1_outputs(std::move(outputs));
  result.base_clusters = std::move(merged.base_clusters);
  result.num_fragments = merged.num_fragments;
  result.num_gap_repairs = merged.num_gap_repairs;
  result.timing.phase1_s = watch.elapsed_seconds();
  if (config.mode == Mode::kBase) return result;

  // Phases 2-3 on the coordinator.
  watch.restart();
  Phase2Output p2 = FlowBuilder(net, result.base_clusters, config.flow).build();
  result.flow_clusters = std::move(p2.flows);
  result.filtered_flows = std::move(p2.filtered_flows);
  result.effective_min_card = p2.effective_min_card;
  result.timing.phase2_s = watch.elapsed_seconds();
  if (config.mode == Mode::kFlow) return result;

  watch.restart();
  Phase3Output p3 = Refiner(net, config.refine).refine(result.flow_clusters);
  result.final_clusters = std::move(p3.clusters);
  result.sp_computations = p3.sp_computations;
  result.elb_pruned_pairs = p3.elb_pruned_pairs;
  result.lm_pruned_pairs = p3.lm_pruned_pairs;
  result.pairs_evaluated = p3.pairs_evaluated;
  result.timing.phase3_s = watch.elapsed_seconds();
  return result;
}

}  // namespace neat
