// Route planning for the mobility simulator and the /v1/route endpoint.
//
// Trips target a small predefined destination set while originating from
// many distinct junctions inside the hotspot regions, so the planner caches
// one *reverse* shortest-path tree per destination and answers every trip
// toward it in O(route length), independent of the origin count.
//
// The cache holds at most kMaxCachedDestinations trees. A tree costs one
// full reverse Dijkstra and about 12 bytes per junction, so a client that
// asks for ever new destinations would otherwise pin one more tree per
// request for the life of the process. When a new tree would exceed the
// bound the whole cache is cleared, as ChEngine::LabelCache does. A tree is
// a pure function of (network, destination, metric), so an eviction costs
// only a rebuild, never a different answer.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <unordered_map>

#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"

namespace neat::sim {

/// Shortest-route planner over bounded per-destination reverse-SSSP trees.
/// Keeps a reference to the network; do not outlive it. Not thread safe.
class TripPlanner {
 public:
  /// Most trees cached at once. Every simulator config uses 1-8
  /// destinations, so trip generation never evicts.
  static constexpr std::size_t kMaxCachedDestinations = 64;

  TripPlanner(const roadnet::RoadNetwork& net, roadnet::Metric metric);

  /// Shortest route from `origin` to `dest` under the planner's metric, or
  /// std::nullopt when unreachable.
  [[nodiscard]] std::optional<roadnet::Route> plan(NodeId origin, NodeId dest);

  /// Number of cached reverse SSSP trees (one per distinct destination
  /// since the last eviction; never above kMaxCachedDestinations).
  [[nodiscard]] std::size_t cached_destinations() const { return trees_.size(); }

 private:
  /// The tree of `dest`, built on a miss. The reference is valid only until
  /// the next call: a miss may clear the cache.
  const roadnet::ReverseSsspTree& tree_for(NodeId dest);

  const roadnet::RoadNetwork& net_;
  roadnet::Metric metric_;
  std::unordered_map<NodeId, std::unique_ptr<roadnet::ReverseSsspTree>> trees_;
};

}  // namespace neat::sim
