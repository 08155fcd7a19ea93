// Bucket-based many-to-many distance tables over a contraction hierarchy
// (Knopp et al. 2007; OSRM's matrix plugin is the production exemplar).
//
// A table fill runs one backward sweep over the targets — each target's
// upward label deposits (target, dist-to-hub) entries into a per-node bucket
// CSR — followed by one forward upward scan per source that joins its label
// against the buckets. That is O(sources + targets) bounded upward searches
// with stall-on-demand, where repeated one-to-many querying performs a full
// sorted-label merge per (source, target) pair: the join visits only the
// nodes the forward label actually settled, and each bucket row is exactly
// the set of targets whose backward search reached that hub.
//
// Exactness matches ChEngine::Query bit for bit, by construction: labels
// come from the shared ChEngine::LabelBuilder, meets are selected with the
// same strict `<` over node-id-ascending candidates, and every finite cell
// is resolved by unpacking the winning up-down path and re-summing its base
// arcs sequentially from the source. Bounded fills keep the Dijkstra
// contract — the exact distance when it is <= bound, kInfDistance otherwise
// — and the bound prunes both sweeps (early termination), so a
// `/v1/table?bound=` fill never builds labels past its bound.
//
// Not thread safe; create one per thread over a shared immutable ChEngine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "roadnet/ch_engine.h"
#include "roadnet/shortest_path.h"

namespace neat::roadnet {

/// Many-to-many table engine over a shared ChEngine hierarchy.
class CHTableEngine {
 public:
  /// Binds to a built engine. Keeps a reference; do not outlive it.
  explicit CHTableEngine(const ChEngine& engine);

  CHTableEngine(const CHTableEngine&) = delete;
  CHTableEngine& operator=(const CHTableEngine&) = delete;
  CHTableEngine(CHTableEngine&&) = default;

  /// Fills `out` (row-major, sources.size() x targets.size(): cell (i, k)
  /// at out[i * targets.size() + k]) with exact shortest distances in the
  /// engine's metric, kInfDistance when unreachable or beyond `bound`.
  /// Duplicate nodes in either span are deduplicated internally — each
  /// distinct endpoint costs one upward search — and `out` must not alias
  /// the input spans. Counts as one computation, like the oracle's batch.
  void table(std::span<const NodeId> sources, std::span<const NodeId> targets,
             std::span<double> out, double bound = kInfDistance);

  [[nodiscard]] const ChEngine& engine() const { return ch_; }
  /// table() calls issued so far.
  [[nodiscard]] std::size_t computations() const { return computations_; }
  /// Nodes settled across all calls, both sweep directions (work proxy;
  /// directly comparable to ChEngine::Query::settled_nodes()). Label cache
  /// hits settle nothing.
  [[nodiscard]] std::size_t settled_nodes() const { return settled_; }
  void reset_counters();

 private:
  /// One deposited backward-label entry: which unique target reached this
  /// hub and at what upward distance.
  struct BucketEntry {
    std::int32_t target;  ///< Index into the unique-target list.
    double dist;
  };

  const ChEngine& ch_;
  ChEngine::LabelBuilder builder_;
  ChEngine::LabelCache cache_;
  std::size_t computations_{0};
  std::size_t settled_{0};

  // table() scratch, reused across calls.
  std::vector<NodeId> uniq_sources_;
  std::vector<NodeId> uniq_targets_;
  std::vector<std::int32_t> row_uidx_;  ///< Original row -> unique source.
  std::vector<std::int32_t> col_uidx_;  ///< Original column -> unique target.
  std::vector<std::int32_t> bucket_head_;
  std::vector<BucketEntry> buckets_;
  std::vector<double> best_;
  std::vector<std::int32_t> meet_;
  std::vector<double> row_scratch_;
  std::vector<std::int32_t> leaves_scratch_;
};

}  // namespace neat::roadnet
