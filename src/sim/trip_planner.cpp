#include "sim/trip_planner.h"

namespace neat::sim {

TripPlanner::TripPlanner(const roadnet::RoadNetwork& net, roadnet::Metric metric)
    : net_(net), metric_(metric) {}

const roadnet::ReverseSsspTree& TripPlanner::tree_for(NodeId dest) {
  auto it = trees_.find(dest);
  if (it == trees_.end()) {
    if (trees_.size() >= kMaxCachedDestinations) trees_.clear();
    it = trees_
             .emplace(dest, std::make_unique<roadnet::ReverseSsspTree>(net_, dest, metric_))
             .first;
  }
  return *it->second;
}

std::optional<roadnet::Route> TripPlanner::plan(NodeId origin, NodeId dest) {
  return tree_for(dest).route_from(origin);
}

}  // namespace neat::sim
