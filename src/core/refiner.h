// NEAT Phase 3 — flow cluster refinement (paper §III-C).
//
// Flow clusters whose representative routes end near each other (in *network*
// distance) are merged into final trajectory clusters, revealing groups of
// frequent routes between hotspot areas. The distance between two flows is
// the paper's modified Hausdorff metric over the route endpoints (Definition
// 11, Eq. 5), evaluated with undirected shortest-path distances. The merge
// is a deterministic adaptation of DBSCAN: flows are data units, there is no
// minimum cardinality for resulting clusters, and each round starts from the
// unprocessed flow with the longest representative route.
//
// Two admissible prunes may skip a pair's shortest-path work entirely:
//  * The Euclidean lower bound (ELB, §III-C.3) — segment lengths never
//    undercut straight-line distances, so d_E(a, b) <= d_N(a, b).
//  * The landmark (ALT) bound — triangle inequality over precomputed
//    landmark distance tables (roadnet::LandmarkOracle); tighter than ELB
//    whenever shortest paths bend, e.g. on grid networks. The same tables
//    steer the surviving searches as A* potentials.
// Neither prune ever changes a merge decision, only the work performed.
//
// Pairs that survive pruning are evaluated one at a time on one of three
// rungs of the distance ladder: Dijkstra, ALT (the same Dijkstra steered by
// the landmark tables) or Contraction Hierarchies. Every rung returns the
// same distances, so clusters are bit-identical across engines.
//
// refine() never visits all n(n-1)/2 pairs. With ELB on, a uniform grid of
// ε-wide cells over the points the ELB key measures yields the candidate
// pairs, and the ELB test runs on those alone; every other pair is ELB-pruned
// by construction. The candidates are evaluated in fixed chunks across
// RefineConfig::threads workers, which keep only the pairs within ε. The
// DBSCAN merge then runs serially over each flow's ε-neighbour list, so
// clusters and counters do not depend on the thread count, and time and
// memory grow with n plus the candidate pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/flow_cluster.h"
#include "roadnet/ch_engine.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"

namespace neat {

/// How the distance between two flow clusters is measured.
enum class FlowDistanceMode {
  /// The paper's first prototype (§III-C.1): modified Hausdorff over the
  /// two ends of each representative route (four shortest paths per pair).
  kEndpoints,
  /// Full-route refinement the paper leaves for later prototypes: modified
  /// Hausdorff over *all* junctions of both representative routes — two
  /// routes are close only when every part of each runs near the other.
  /// One multi-target Dijkstra per junction.
  kFullRoute,
};

/// Which engine answers the shortest-path queries that survive pruning.
/// Every rung returns identical distances — the ladder only trades
/// preprocessing for per-query work, never merge decisions.
enum class DistanceEngine {
  /// Bounded Dijkstra (NodeDistanceOracle), no preprocessing; with
  /// RefineConfig::use_landmarks the searches run as ALT-steered A*.
  kDijkstra,
  /// Contraction Hierarchies: one-time node-contraction preprocessing, then
  /// bidirectional upward searches that settle orders of magnitude fewer
  /// nodes per query (roadnet::ChEngine).
  kCh,
};

/// Parameters of Phase 3.
struct RefineConfig {
  double epsilon{3000.0};  ///< DBSCAN ε in metres of network distance.
  FlowDistanceMode distance_mode{FlowDistanceMode::kEndpoints};
  bool use_elb{true};      ///< Euclidean-lower-bound pruning on/off.
  /// Landmark (ALT) acceleration: a second admissible prune from
  /// triangle-inequality bounds over precomputed landmark tables, plus A*
  /// potentials for the searches that survive pruning. Merge decisions are
  /// unchanged; only the Dijkstra work shrinks. Costs num_landmarks + 1 full
  /// Dijkstra runs to build (lazily, on first refine()).
  bool use_landmarks{false};
  int num_landmarks{8};    ///< Landmark count when use_landmarks is set.
  /// Shortest-path engine for the queries pruning cannot skip. kCh builds a
  /// roadnet::ChEngine lazily on first refine() (or accepts a shared one
  /// via Refiner::set_ch_engine).
  DistanceEngine distance_engine{DistanceEngine::kDijkstra};
  /// Stop each Dijkstra once the search frontier passes ε. Every clustering
  /// decision is identical (DBSCAN only asks whether d <= ε; a leg that
  /// bounds out is > ε, and Formula 5's max/min structure preserves the
  /// comparison), only the work shrinks. Disable to mirror the paper's
  /// opt-NEAT-Dijkstra variant, which computes full shortest paths.
  bool bound_searches_at_epsilon{true};
  /// DBSCAN minPts over flows. 1 (the default) makes every flow core, which
  /// matches the paper's "no minimum cardinality" modification.
  int min_pts{1};
  /// Worker threads for the candidate-pair evaluation in
  /// Refiner::refine. The output is bit-identical for any value; 0/1 =
  /// serial. Honored by NeatClusterer and the serving/incremental paths.
  unsigned threads{1};
};

/// A final trajectory cluster: a set of merged flow clusters.
struct FinalCluster {
  /// Indices into the Phase 2 flow vector, ascending.
  std::vector<std::size_t> flows;
  /// Sum of the members' representative-route lengths (metres).
  double total_route_length{0.0};
  /// Distinct participating trajectories, ascending.
  std::vector<TrajectoryId> participants;

  [[nodiscard]] int cardinality() const { return static_cast<int>(participants.size()); }
};

/// Result of Phase 3 with the instrumentation the paper's Figure 7 reports.
struct Phase3Output {
  std::vector<FinalCluster> clusters;
  std::size_t sp_computations{0};   ///< Shortest-path (Dijkstra/A*) runs issued.
  std::size_t elb_pruned_pairs{0};  ///< Flow pairs eliminated by ELB alone.
  std::size_t lm_pruned_pairs{0};   ///< Pairs eliminated by the landmark bound (after ELB).
  std::size_t pairs_evaluated{0};   ///< Flow pairs whose network distance was computed.
  std::size_t settled_nodes{0};     ///< Nodes settled across all searches (work proxy).
};

/// The modified Hausdorff distance of Definition 11 given the four pairwise
/// endpoint distances d(a_i, b_j). Exposed for tests.
[[nodiscard]] double hausdorff_from_parts(double d11, double d12, double d21, double d22);

/// Merges flow clusters into final trajectory clusters.
class Refiner {
 public:
  /// Keeps a reference to the network; do not outlive it. Throws
  /// neat::PreconditionError on non-positive ε, minPts < 1 or
  /// num_landmarks < 1 (with use_landmarks). Construction is cheap; the
  /// landmark tables are built lazily on first use.
  Refiner(const roadnet::RoadNetwork& net, RefineConfig config);

  /// Runs the refinement over the given flows (fewer than 2^32), evaluating
  /// the candidate pairs across config().threads workers (landmark tables
  /// and the hierarchy are built first; workers only read them). Time and
  /// memory are O(n + candidate pairs); the n(n-1)/2 pairs are never
  /// enumerated unless ELB is off. Deterministic:
  /// clusters and counters are identical at any thread count, except
  /// settled_nodes under kCh, where each worker memoizes hub labels and the
  /// total depends on how chunks land on workers.
  [[nodiscard]] Phase3Output refine(const std::vector<FlowCluster>& flows) const;

  /// Network (modified Hausdorff) distance between two flow clusters under
  /// the configured mode, computed with a fresh oracle. For tests/tools.
  [[nodiscard]] double flow_distance(const FlowCluster& a, const FlowCluster& b) const;

  /// Smallest Euclidean distance among the four endpoint pairs — the ELB
  /// pruning key of the endpoint mode. Exposed for tests.
  [[nodiscard]] double min_euclidean_endpoint_distance(const FlowCluster& a,
                                                       const FlowCluster& b) const;

  /// Euclidean full-route Hausdorff over the junction sets — the ELB
  /// pruning key of the full-route mode (a lower bound of the network
  /// value, since d_E <= d_N junction-wise). Exposed for tests.
  [[nodiscard]] double euclidean_route_hausdorff(const FlowCluster& a,
                                                 const FlowCluster& b) const;

  /// Landmark lower bound on the endpoint Hausdorff distance (Formula 5 over
  /// the four per-pair landmark bounds — monotonicity keeps it admissible).
  /// Exposed for tests.
  [[nodiscard]] double landmark_hausdorff_bound(const FlowCluster& a, const FlowCluster& b,
                                                const roadnet::LandmarkOracle& lm) const;

  // --- building blocks of refine(), exposed for benches and tools ----------

  /// Per-thread distance-evaluation workspace: a Dijkstra/ALT oracle plus,
  /// under DistanceEngine::kCh, a query head bound to the shared hierarchy.
  /// Obtain via make_context(); not thread safe, create one per thread.
  struct DistanceContext {
    roadnet::NodeDistanceOracle oracle;
    std::optional<roadnet::ChEngine::Query> ch{};
    /// The refiner's landmark oracle (nullptr when landmarks are off),
    /// resolved once so the per-pair work never takes the refiner's lock.
    const roadnet::LandmarkOracle* landmarks{nullptr};

    [[nodiscard]] std::size_t computations() const {
      return oracle.computations() + (ch ? ch->computations() : 0);
    }
    [[nodiscard]] std::size_t settled_nodes() const {
      return oracle.settled_nodes() + (ch ? ch->settled_nodes() : 0);
    }
  };

  /// Candidate pairs per chunk claimed by refine()'s workers, and ELB
  /// survivors per evaluation block of fill_pair_distances(). A constant,
  /// so the chunk boundaries do not depend on the thread count. Large
  /// enough to amortize the claim atomic, small enough that an unlucky
  /// worker stuck with expensive pairs cannot stall the others at the end
  /// of the candidate list.
  static constexpr std::size_t kPairChunk = 64;

  /// Builds a workspace for the configured engine. Under kCh this triggers
  /// the (thread-safe, once-only) lazy hierarchy build, and with landmarks
  /// on it resolves the landmark oracle (building it on first use).
  [[nodiscard]] DistanceContext make_context() const;

  /// The dense reference evaluator: writes the distance of every
  /// condensed-matrix pair in [begin, end) into its slot of `pair_dist` (the
  /// FULL condensed matrix span; entries outside the range are untouched).
  /// Pair (i, j), i < j, lives at index i * n - i * (i + 1) / 2 + (j - i - 1).
  /// Pruned pairs read +inf. Applies the ELB test to every pair, then
  /// evaluates the survivors kPairChunk at a time, in matrix order, with the
  /// per-chunk code refine() runs. refine() itself never builds this
  /// matrix; benches and tests use it as an independent oracle.
  void fill_pair_distances(const std::vector<FlowCluster>& flows, std::size_t begin,
                           std::size_t end, DistanceContext& ctx,
                           std::span<double> pair_dist, Phase3Output& counters) const;

  /// The deterministic DBSCAN merge over a precomputed condensed pair
  /// distance matrix (layout as in fill_pair_distances): turns it into each
  /// flow's ε-neighbour list and runs the DBSCAN refine() runs. Only the
  /// `clusters` member of the result is populated.
  [[nodiscard]] Phase3Output cluster_from_pair_distances(
      const std::vector<FlowCluster>& flows, std::span<const double> pair_distances) const;

  /// Pre-seeds the landmark tables (e.g. to share one oracle across many
  /// refiners or batches). Ignored unless the config enables landmarks.
  void set_landmarks(std::shared_ptr<const roadnet::LandmarkOracle> landmarks);

  /// The landmark oracle used by this refiner: nullptr when disabled,
  /// otherwise the seeded or lazily built instance. Thread safe.
  [[nodiscard]] const roadnet::LandmarkOracle* landmark_oracle() const;

  /// Pre-seeds the contraction hierarchy (e.g. to amortize one build across
  /// refiners or batches). Ignored unless distance_engine is kCh; the
  /// engine must be built over the same network.
  void set_ch_engine(std::shared_ptr<const roadnet::ChEngine> ch);

  /// The hierarchy used by this refiner: nullptr unless distance_engine is
  /// kCh, otherwise the seeded or lazily built instance. Thread safe.
  [[nodiscard]] const roadnet::ChEngine* ch_engine() const;

  [[nodiscard]] const RefineConfig& config() const { return config_; }
  [[nodiscard]] const roadnet::RoadNetwork& network() const { return net_; }

 private:
  /// A flow pair by index into the flow vector, i < j.
  struct FlowPair {
    std::uint32_t i;
    std::uint32_t j;
  };

  /// True when the ELB test prunes the pair (ELB on and key > ε).
  bool elb_pruned(const FlowCluster& a, const FlowCluster& b) const;
  /// Every pair the ELB test keeps, in (i, j) order, found by a grid join
  /// instead of a scan over all pairs.
  std::vector<FlowPair> elb_survivors(const std::vector<FlowCluster>& flows) const;
  /// Evaluates pairs that already passed ELB into dist[k] (+inf when the
  /// landmark bound prunes pairs[k]), one pair at a time. Work counters
  /// accumulate into `counters`.
  void evaluate_pairs(const std::vector<FlowCluster>& flows, std::span<const FlowPair> pairs,
                      DistanceContext& ctx, std::span<double> dist,
                      Phase3Output& counters) const;
  /// The DBSCAN merge over the pairs within ε (any order). Only the
  /// `clusters` member of the result is populated.
  Phase3Output cluster_close_pairs(const std::vector<FlowCluster>& flows,
                                   std::span<const FlowPair> close) const;
  double network_hausdorff(const FlowCluster& a, const FlowCluster& b,
                           DistanceContext& ctx) const;
  double network_route_hausdorff(const FlowCluster& a, const FlowCluster& b,
                                 DistanceContext& ctx) const;
  double elb_key(const FlowCluster& a, const FlowCluster& b) const;

  const roadnet::RoadNetwork& net_;
  RefineConfig config_;
  mutable std::mutex accel_mu_;  ///< Guards the lazily built accelerators.
  mutable std::shared_ptr<const roadnet::LandmarkOracle> landmarks_;
  mutable std::shared_ptr<const roadnet::ChEngine> ch_;
};

}  // namespace neat
