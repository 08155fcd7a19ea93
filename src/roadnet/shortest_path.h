// Shortest-path machinery over road networks.
//
// Two families of queries exist because the paper uses the network two ways:
//  * Undirected node-to-node distances (metres) back the modified Hausdorff
//    distance of NEAT Phase 3 — "dN(a, b) and dN(b, a) are the same since we
//    consider undirected graphs" (§III-C.3). NodeDistanceOracle keeps a
//    reusable workspace so the refiner can issue many queries cheaply, and
//    counts its Dijkstra runs so benchmarks can report ELB pruning wins.
//  * Directed routes (respecting one-way segments) back the mobility
//    simulator and the t-fragment gap repair of Phase 1.
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "roadnet/road_network.h"

namespace neat::roadnet {

class LandmarkOracle;

inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// Edge weight to optimize when routing.
enum class Metric {
  kDistance,    ///< Segment length (metres).
  kTravelTime,  ///< Length / speed limit (seconds).
};

/// A directed route through the network.
struct Route {
  std::vector<EdgeId> edges;
  double length{0.0};       ///< Metres.
  double travel_time{0.0};  ///< Seconds at segment speed limits.

  /// Junction sequence visited by the route (edge count + 1 nodes), starting
  /// at the route origin. Empty for an empty route.
  [[nodiscard]] std::vector<NodeId> node_path(const RoadNetwork& net) const;
};

/// Reusable undirected single-pair shortest-distance solver (Dijkstra with a
/// lazy-deletion binary heap and generation-stamped state, so repeated
/// queries do not reallocate). Not thread safe; create one per thread.
///
/// Every query optionally takes a LandmarkOracle: when given, the search
/// runs as A* steered by the landmark (ALT) potential — returned distances
/// are identical (the potential is admissible and consistent), only fewer
/// nodes are settled.
class NodeDistanceOracle {
 public:
  explicit NodeDistanceOracle(const RoadNetwork& net);

  /// Undirected network distance from `s` to `t` in metres. Returns
  /// kInfDistance when unreachable or when the distance exceeds `bound`.
  [[nodiscard]] double distance(NodeId s, NodeId t, double bound = kInfDistance,
                                const LandmarkOracle* alt = nullptr);

  /// Undirected network distance from `s` to the *closest* of `targets`
  /// (min over targets), or kInfDistance when none is reachable within
  /// `bound`. One Dijkstra run: the first settled target is the closest.
  [[nodiscard]] double distance_to_any(NodeId s, std::span<const NodeId> targets,
                                       double bound = kInfDistance,
                                       const LandmarkOracle* alt = nullptr);

  /// One-to-many batch: fills `out[k]` with the undirected network distance
  /// from `s` to `targets[k]` (kInfDistance when unreachable or beyond
  /// `bound`), in ONE search that stops once every target has settled or the
  /// frontier passes `bound`. `out.size()` must equal `targets.size()`.
  /// Counts as a single computation — this is how the Phase 3 refiner
  /// settles a flow endpoint against both endpoints of another flow without
  /// paying per-target searches.
  void distances(NodeId s, std::span<const NodeId> targets, std::span<double> out,
                 double bound = kInfDistance, const LandmarkOracle* alt = nullptr);

  /// Number of Dijkstra runs issued so far (the paper's "number of shortest
  /// path computations").
  [[nodiscard]] std::size_t computations() const { return computations_; }

  /// Total number of settled nodes across all runs (work proxy).
  [[nodiscard]] std::size_t settled_nodes() const { return settled_; }

  /// Resets the instrumentation counters.
  void reset_counters();

 private:
  /// Shared engine behind the three public queries: bounded, optionally
  /// ALT-steered, settling either the first target (returning its distance)
  /// or all of them (filling `out`).
  double search(NodeId s, std::span<const NodeId> targets, std::span<double> out,
                double bound, const LandmarkOracle* alt, bool first_only);

  const RoadNetwork& net_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> stamp_;
  /// Binary min-heap of (key, node id), kept across searches.
  std::vector<std::pair<double, std::int32_t>> heap_;
  std::vector<char> target_done_;  ///< Per-call scratch, sized to the target set.
  std::uint32_t generation_{0};
  std::size_t computations_{0};
  std::size_t settled_{0};
};

/// One-shot undirected node distance (convenience wrapper for tests/tools).
[[nodiscard]] double node_distance(const RoadNetwork& net, NodeId s, NodeId t,
                                   double bound = kInfDistance);

/// Undirected shortest junction path from `s` to `t` (inclusive), or
/// std::nullopt when unreachable.
[[nodiscard]] std::optional<std::vector<NodeId>> shortest_node_path(
    const RoadNetwork& net, NodeId s, NodeId t, double bound = kInfDistance);

/// Directed shortest route from `s` to `t` under the given metric, or
/// std::nullopt when `t` is not reachable within `max_cost` (same unit as
/// the metric).
[[nodiscard]] std::optional<Route> shortest_route(const RoadNetwork& net, NodeId s,
                                                  NodeId t, Metric metric,
                                                  double max_cost = kInfDistance);

/// A position on a segment: `offset` metres from the segment's endpoint `a`.
struct NetworkLocation {
  SegmentId sid;
  double offset{0.0};
};

/// Undirected network distance between two on-segment locations (the
/// paper's d_N over road-network locations, §III-C.3): on the same segment
/// it is the offset difference; otherwise the best combination of
/// offset-to-endpoint legs plus a node-to-node shortest path, also
/// considering the direct route across a shared junction. Returns
/// kInfDistance when disconnected. The Euclidean distance between the two
/// positions is always a lower bound (ELB).
[[nodiscard]] double location_distance(const RoadNetwork& net, NetworkLocation a,
                                       NetworkLocation b, NodeDistanceOracle& oracle);

/// Convenience overload constructing a throwaway oracle.
[[nodiscard]] double location_distance(const RoadNetwork& net, NetworkLocation a,
                                       NetworkLocation b);

/// All-origins-to-one-target shortest-path tree over directed edges (a
/// Dijkstra run on the reversed graph). sim::TripPlanner routes the mobility
/// simulator's trips with it: trip destinations come from a small predefined
/// set, so one reverse tree per destination answers every trip toward it in
/// O(route length) — regardless of how many distinct origins the hotspot
/// regions produce.
class ReverseSsspTree {
 public:
  ReverseSsspTree(const RoadNetwork& net, NodeId target, Metric metric);

  [[nodiscard]] NodeId target() const { return target_; }
  [[nodiscard]] bool reachable_from(NodeId s) const;

  /// Cost from `s` to the target, or kInfDistance when unreachable.
  [[nodiscard]] double cost_from(NodeId s) const;

  /// Route from `s` to the target, or std::nullopt when unreachable.
  [[nodiscard]] std::optional<Route> route_from(NodeId s) const;

 private:
  const RoadNetwork& net_;
  NodeId target_;
  std::vector<double> cost_;
  std::vector<EdgeId> next_edge_;  ///< First edge of the path toward the target.
};

}  // namespace neat::roadnet
