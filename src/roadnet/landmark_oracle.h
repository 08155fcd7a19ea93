// ALT-style landmark distance bounds (the "A*, Landmarks, Triangle
// inequality" technique of Goldberg & Harrelson).
//
// A LandmarkOracle precomputes the exact undirected network distance from K
// landmark junctions to every junction. For any query pair (s, t) the
// triangle inequality gives an *admissible* lower bound
//
//     d_N(s, t) >= |d_N(L, s) - d_N(L, t)|        for every landmark L,
//
// and the maximum over landmarks is the oracle's bound. It complements
// NEAT's Euclidean lower bound (ELB, paper §III-C.3): ELB is tight only when
// the shortest path is nearly straight, while the landmark bound follows
// network geodesics — on grid-like city networks, where network distance
// approaches the Manhattan distance, it is routinely ~sqrt(2) tighter. The
// same tables serve as consistent A* potentials, so the Dijkstra runs that
// survive pruning settle fewer nodes while returning the exact distances.
//
// Landmarks are chosen by deterministic farthest-point selection, which
// pushes them to the network periphery where the bounds are tightest.
// Construction costs K + 1 full Dijkstra runs and K * |V| doubles of memory;
// instances are immutable afterwards and safe to share across threads.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/ids.h"
#include "roadnet/road_network.h"

namespace neat::roadnet {

/// Precomputed landmark distance tables over one road network.
class LandmarkOracle {
 public:
  /// Selects min(count, reachable junctions) landmarks and runs one full
  /// undirected Dijkstra per landmark. Keeps a reference to the network; do
  /// not outlive it. Throws neat::PreconditionError when `count` is outside
  /// [1, kMaxLandmarks] or the network has no junctions.
  explicit LandmarkOracle(const RoadNetwork& net, int count = kDefaultLandmarks);

  static constexpr int kDefaultLandmarks = 8;
  /// The most landmarks one oracle builds. Each costs a full Dijkstra and a
  /// row of node_count doubles (8·|V| bytes), while the bound gains less
  /// with every landmark added.
  static constexpr int kMaxLandmarks = 64;

  /// Lower bound on the undirected network distance d_N(s, t): the best
  /// triangle-inequality bound over all landmarks. Returns kInfDistance when
  /// the tables prove s and t lie in different connected components; returns
  /// 0.0 when no landmark sees either node (never overestimates).
  [[nodiscard]] double lower_bound(NodeId s, NodeId t) const;

  /// Lower bound on min over `targets` of d_N(u, target) — the consistent
  /// A* potential for one-to-many searches. Empty target sets bound nothing
  /// (returns 0.0).
  [[nodiscard]] double lower_bound_to_any(NodeId u, std::span<const NodeId> targets) const;

  /// The selected landmark junctions (deterministic for a given network).
  [[nodiscard]] const std::vector<NodeId>& landmarks() const { return landmarks_; }

  [[nodiscard]] std::size_t landmark_count() const { return landmarks_.size(); }

  /// Exact distance from landmark `i` to junction `n` (kInfDistance when
  /// unreachable). Exposed for tests.
  [[nodiscard]] double landmark_distance(std::size_t i, NodeId n) const;

 private:
  const RoadNetwork& net_;
  std::vector<NodeId> landmarks_;
  /// Row-major K x node_count table of exact distances.
  std::vector<double> dist_;
  std::size_t stride_{0};
};

}  // namespace neat::roadnet
