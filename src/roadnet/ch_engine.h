// Contraction Hierarchies (Geisberger et al. 2008) over road networks.
//
// The hierarchy answers the undirected network distance (metres) of NEAT
// Phase 3 — every segment traversable both ways regardless of its one-way
// flag (§III-C.3), the metric of NodeDistanceOracle. Directed trip routes
// come from reverse shortest-path trees instead (sim::TripPlanner).
//
// A one-time preprocessing pass contracts nodes in importance order (lazy
// edge-difference heuristic), inserting shortcut arcs that preserve all
// shortest-path distances among the not-yet-contracted nodes. Queries then
// run two tiny Dijkstra searches that only climb *upward* in the contraction
// order — one from the source, one from the target — and meet at the apex
// of a shortest up-down path. Stall-on-demand prunes upward labels that a
// higher-ranked detour already beats. Every shortcut is inserted together
// with its reverse twin, so the hierarchy is arc-symmetric: the backward
// search from a target settles exactly what a forward search from it does,
// and one label per node serves both sides of a query.
//
// Each upward search depends only on its endpoint and the query bound, so a
// Query memoizes the resulting label (the bucket entries of the classic CH
// many-to-many algorithm: every settled node with its distance and parent
// arc). Labels are built out to the requested bound — within it every
// reachable meet hub is retained exactly, beyond it the query answers
// kInfDistance by contract, so the truncation is invisible — and rebuilt
// only if a later query asks for a larger bound. A workload that asks many
// pairs over few distinct endpoints at one fixed bound pays one upward
// search per endpoint; after its first touch, every further pair distance
// is a sorted-label merge that settles no nodes at all. The bucket-based
// many-to-many fill behind /v1/table (CHTableEngine) builds the same labels.
//
// Exactness: answers are not read off the bidirectional meet value. The
// engine unpacks the winning up-down path into its original arcs and re-sums
// the weights sequentially from the source — the same left-to-right
// floating-point accumulation a plain Dijkstra performs along that path — so
// distances are bit-identical to NodeDistanceOracle whenever the shortest
// path is unique (and within rounding ties of equal-length alternatives
// otherwise). Bounded queries keep the Dijkstra contract: the exact distance
// when it is <= bound, kInfDistance otherwise.
//
// Like LandmarkOracle, a built engine is immutable and safe to share across
// threads; per-thread query state lives in ChEngine::Query.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"

namespace neat::roadnet {

class CHTableEngine;

/// Exact shortest-distance engine with Contraction Hierarchies preprocessing.
class ChEngine {
 public:
  /// One settled node of an upward search: its exact upward distance from
  /// the label's endpoint and the hierarchy arc it was reached through
  /// (-1 at the endpoint itself). Sorted by node id for merge scans.
  struct LabelEntry {
    std::int32_t node;
    double dist;
    std::int32_t parent;
  };
  /// A memoized upward search, valid for any query bound <= `bound`.
  struct Label {
    double bound{0.0};
    std::vector<LabelEntry> entries;
  };

  /// Reusable upward-search workspace: the bounded upward Dijkstra with
  /// stall-on-demand that both Query and CHTableEngine run. Sharing one
  /// implementation is what makes the table engine's entries bit-identical
  /// to Query's — there is only one label construction in the codebase.
  /// Not thread safe; create one per thread.
  class LabelBuilder {
   public:
    explicit LabelBuilder(const ChEngine& engine);

    /// Runs the upward Dijkstra from `src`, pruned at `bound`, and
    /// overwrites `out` with the settled entries sorted by node id. Returns
    /// the settled count.
    std::size_t build(std::int32_t src, double bound, Label& out);

   private:
    const ChEngine& ch_;
    // Generation-stamped scratch, reused across builds.
    std::vector<double> dist_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::int32_t> parent_;
    std::uint32_t gen_{0};
  };

  /// Memoized upward labels keyed by endpoint node, built out to the
  /// requested bound and rebuilt only when a later call asks for a larger
  /// one. The hierarchy is arc-symmetric (contract() inserts shortcut
  /// twins), so a node's label serves as its backward label too — both
  /// sides of a query share one cache and one build. unpack_updown()
  /// compensates for the flipped parent arcs. Not thread safe.
  class LabelCache {
   public:
    /// Cached upward label of `src`, built via `builder` on a miss (or on a
    /// larger bound); settled nodes of any build are added to `settled`.
    const Label& get(std::int32_t src, double bound, LabelBuilder& builder,
                     std::size_t& settled);
    /// Whole-cache eviction once the entry budget is exhausted (keeps
    /// unbounded query streams from growing without limit; correctness
    /// never depends on a hit). Call only between batches: merges hold
    /// references into the cache.
    void maybe_evict();

   private:
    std::unordered_map<std::int32_t, Label> labels_;
    std::size_t cached_entries_{0};
  };

  /// Preprocesses the network. Throws neat::PreconditionError on an empty
  /// network. Keeps a reference to `net`; do not outlive it.
  explicit ChEngine(const RoadNetwork& net);

  ChEngine(const ChEngine&) = delete;
  ChEngine& operator=(const ChEngine&) = delete;

  [[nodiscard]] const RoadNetwork& network() const { return net_; }
  /// Shortcut arcs inserted by preprocessing (on top of the base arcs).
  [[nodiscard]] std::size_t shortcut_count() const { return shortcut_count_; }
  /// Wall-clock seconds the preprocessing pass took.
  [[nodiscard]] double preprocessing_seconds() const { return preprocessing_seconds_; }
  /// Contraction order of a node (0 = contracted first). For tests.
  [[nodiscard]] std::int32_t rank(NodeId n) const;

  /// Per-thread query workspace over a shared engine. Mirrors the
  /// NodeDistanceOracle interface (bounded queries, batch one-to-many,
  /// computation/settled counters), so the two answer the same queries
  /// side by side in tests and benches. Not thread safe; create one per
  /// thread.
  class Query {
   public:
    explicit Query(const ChEngine& engine);

    /// Undirected network distance from `s` to `t` in metres, or
    /// kInfDistance when unreachable or beyond `bound`.
    [[nodiscard]] double distance(NodeId s, NodeId t, double bound = kInfDistance);

    /// One-to-many batch: merges the source's cached label against each
    /// target's. `out.size()` must equal `targets.size()`. Counts as one
    /// computation, like the oracle's batch.
    void distances(NodeId s, std::span<const NodeId> targets, std::span<double> out,
                   double bound = kInfDistance);

    /// Query calls issued so far (a batch counts once, as in the oracle).
    [[nodiscard]] std::size_t computations() const { return computations_; }
    /// Nodes settled across all calls, both search directions (work proxy;
    /// directly comparable to NodeDistanceOracle::settled_nodes()). Label
    /// cache hits settle nothing — that is the point of the cache.
    [[nodiscard]] std::size_t settled_nodes() const { return settled_; }
    void reset_counters();

   private:
    /// Cached upward label of `src`, built out to at least `bound`.
    const Label& label(std::int32_t src, double bound);

    const ChEngine& ch_;
    LabelBuilder builder_;
    LabelCache cache_;
    std::vector<std::int32_t> leaves_scratch_;
    std::size_t computations_{0};
    std::size_t settled_{0};
  };

 private:
  friend class Query;
  friend class LabelBuilder;
  friend class CHTableEngine;

  /// Arena arcs of the up-down path through `meet`, unpacked into base arcs
  /// in s -> t order. `bwd` is the label of the target, whose parent arcs
  /// point toward the apex (see LabelCache).
  void unpack_updown(const Label& fwd, const Label& bwd, std::int32_t meet,
                     std::vector<std::int32_t>& leaves) const;

  /// One arc of the hierarchy. Shortcuts carry the two arcs they replace,
  /// so any hierarchy path unpacks into base arcs.
  struct Arc {
    std::int32_t from;
    std::int32_t to;
    double w;
    std::int32_t left{-1};   ///< First replaced arc (arena index), -1 = base.
    std::int32_t right{-1};  ///< Second replaced arc.
  };

  /// CSR entry of the upward search graphs: the higher-ranked endpoint,
  /// the arc weight, and the arena arc (for parent tracking / unpacking).
  struct UpArc {
    std::int32_t other;
    double w;
    std::int32_t arc;
  };

  void add_base_arcs();
  void contract_all();
  void build_upward_graphs();
  /// Shortcuts node `v` would need (simulate) or inserts them (!simulate).
  int contract(std::int32_t v, bool simulate);
  /// Bounded witness Dijkstra from `u` in the remaining graph, skipping `v`.
  void witness_search(std::int32_t u, std::int32_t v, double bound);
  [[nodiscard]] std::int64_t priority(std::int32_t v);

  const RoadNetwork& net_;
  std::size_t n_{0};
  std::vector<Arc> arcs_;
  std::vector<std::int32_t> rank_;
  std::size_t shortcut_count_{0};
  double preprocessing_seconds_{0.0};

  // Upward search graphs (built once contraction finishes).
  // up_fwd_: arcs (u -> higher rank), relaxed by every upward search.
  // up_rev_: arcs (higher rank -> u) stored at u, scanned by its stall test.
  std::vector<std::int32_t> up_fwd_head_;
  std::vector<UpArc> up_fwd_;
  std::vector<std::int32_t> up_rev_head_;
  std::vector<UpArc> up_rev_;

  // Preprocessing-only state (cleared after the constructor).
  std::vector<std::vector<std::int32_t>> out_adj_;
  std::vector<std::vector<std::int32_t>> in_adj_;
  std::vector<char> contracted_;
  std::vector<std::int32_t> deleted_neighbors_;
  std::vector<std::int32_t> level_;
  /// Reverse-direction twin of each arc: base arcs pair up as i <-> i^1,
  /// shortcut twins are appended together. Lets contract() build the
  /// reverse shortcut's unpacking children.
  std::vector<std::int32_t> twin_;
  std::vector<double> wdist_;
  std::vector<std::uint32_t> wstamp_;
  std::uint32_t wgen_{0};
  struct Neighbor {
    std::int32_t node;
    std::int32_t arc;  ///< Cheapest arc to/from that neighbor (arena index).
    double w;          ///< Its weight.
  };
  std::vector<Neighbor> in_nb_;   ///< contract() scratch.
  std::vector<Neighbor> out_nb_;  ///< contract() scratch.
};

}  // namespace neat::roadnet
