// NEAT Phase 1 — base cluster formation (paper §III-A).
//
// Step 1: each trajectory is partitioned into t-fragments. Consecutive
// samples either share a segment, sit on adjacent segments (a junction point
// is inserted between them, the paper's trajectory splitting points), or sit
// on non-contiguous segments — in which case the junction sequence connecting
// them along the travel path is recovered with a (bounded) shortest-path
// search, mirroring the paper's map-matching-based gap repair, and a
// zero-sample fragment is emitted for every intermediate segment.
//
// Step 2: fragments are counted by segment id into base clusters, which are
// returned sorted by density (descending) so the first element is the
// dense-core the Phase 2 merge starts from.
#pragma once

#include <cstddef>
#include <vector>

#include "core/base_cluster.h"
#include "core/fragment.h"
#include "roadnet/road_network.h"
#include "traj/dataset.h"

namespace neat {

/// Abstract random-access trajectory source for the out-of-core Phase 1
/// walk. Implementations materialize trajectories on demand (e.g. from an
/// mmap-backed columnar file), so the dataset never has to fit in memory.
/// The interface lives in core (not store) because the fragmenter consumes
/// it; store provides the columnar-backed implementation.
class TrajectorySource {
 public:
  virtual ~TrajectorySource() = default;

  /// Number of trajectories.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Materializes trajectory `i`. Must be safe to call concurrently for
  /// distinct indices (Phase 1 workers pull from one batch in parallel).
  [[nodiscard]] virtual traj::Trajectory at(std::size_t i) const = 0;

  /// Called serially after trajectories [begin, end) have been consumed —
  /// a paging source can drop the range's backing pages here.
  virtual void batch_done(std::size_t begin, std::size_t end);
};

/// Result of Phase 1 over a dataset.
struct Phase1Output {
  /// Base clusters sorted by (density desc, sid asc); index 0 is the
  /// dense-core. Every cluster is finalized.
  std::vector<BaseCluster> base_clusters;
  std::size_t num_fragments{0};    ///< Total t-fragments extracted.
  std::size_t num_gap_repairs{0};  ///< Non-contiguous sample pairs repaired.
};

/// Extracts t-fragments and forms base clusters over one road network.
/// Keeps a reference to the network; do not outlive it.
class Fragmenter {
 public:
  explicit Fragmenter(const roadnet::RoadNetwork& net);

  /// Partitions one trajectory into its t-fragment sequence (travel order).
  /// Throws neat::NotFoundError when a sample references a segment that
  /// does not exist. `gap_repairs` (optional) is incremented per repaired
  /// non-contiguous sample pair.
  [[nodiscard]] std::vector<TFragment> fragment(const traj::Trajectory& tr,
                                                std::size_t* gap_repairs = nullptr) const;

  /// The trajectory with the Phase 1 junction points inserted between
  /// samples that change segments (flagged `junction_point`), as described
  /// in §III-A.1. Mainly for inspection and tests.
  [[nodiscard]] traj::Trajectory augmented(const traj::Trajectory& tr) const;

  /// Runs both Phase 1 steps over a dataset. `n_threads` > 1 fragments
  /// trajectories concurrently (trajectories are independent; the network
  /// is read-only); values of 0 and 1 both mean serial. Fragments are
  /// counted into base clusters in dataset order, so the output is
  /// identical at any thread count. Throws neat::PreconditionError naming a
  /// trajectory id that repeats, and rethrows what fragment() throws.
  [[nodiscard]] Phase1Output build_base_clusters(const traj::TrajectoryDataset& data,
                                                 unsigned n_threads = 1) const;

  /// Out-of-core Phase 1: the same build, walking `source` in batches of
  /// kBatchSize trajectories and calling source.batch_done() after each,
  /// so only one batch of trajectories and their fragments' segment ids is
  /// held at a time. The output is identical to the dataset overload's on
  /// the same trajectories at any thread count.
  [[nodiscard]] Phase1Output build_base_clusters(TrajectorySource& source,
                                                 unsigned n_threads = 1) const;

  /// Trajectories fragmented per batch by build_base_clusters: bounds the
  /// fragment segment ids (4 bytes each) held at once, and keeps each batch
  /// large enough to share across many workers.
  static constexpr std::size_t kBatchSize = 4096;

 private:
  const roadnet::RoadNetwork& net_;
};

}  // namespace neat
