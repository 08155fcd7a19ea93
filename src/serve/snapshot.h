// Immutable, versioned, queryable view of a clustering result.
//
// A ClusterSnapshot freezes one NEAT result (flow clusters + final clusters)
// together with the derived read indices the query paths need: a CSR
// segment → flows index and a density ranking. Instances are immutable after
// build(), so any number of threads may query one snapshot concurrently with
// no synchronization; writers publish a *new* snapshot through SnapshotStore
// (RCU-style pointer swap) instead of mutating a live one. Readers that hold
// a shared_ptr keep "their" snapshot alive for the whole query even when a
// newer version lands mid-flight.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/flow_cluster.h"
#include "core/refiner.h"
#include "roadnet/road_network.h"

namespace neat::serve {

/// Frozen clustering result plus read-optimized indices. Build instances
/// with ClusterSnapshot::build; never mutate one after publication.
class ClusterSnapshot {
 public:
  /// Builds a snapshot of `flows` / `final_clusters` over `net`. `version`
  /// is the publication sequence number (must be >= 1; monotonicity across
  /// publications is enforced by SnapshotStore). Flow routes must reference
  /// valid segments of `net` and final clusters must reference valid flow
  /// indices (throws neat::PreconditionError otherwise).
  [[nodiscard]] static std::shared_ptr<const ClusterSnapshot> build(
      const roadnet::RoadNetwork& net, std::vector<FlowCluster> flows,
      std::vector<FinalCluster> final_clusters, std::uint64_t version);

  /// Publication sequence number, >= 1.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  [[nodiscard]] const std::vector<FlowCluster>& flows() const { return flows_; }
  [[nodiscard]] const std::vector<FinalCluster>& final_clusters() const {
    return final_clusters_;
  }

  /// Indices of the flows whose representative route traverses `sid`,
  /// ascending. Empty for segments carrying no flow (or out-of-range ids).
  [[nodiscard]] std::span<const std::uint32_t> flows_on_segment(SegmentId sid) const;

  /// Index of the final cluster containing flow `flow_idx`, or -1 when the
  /// flow belongs to no final cluster.
  [[nodiscard]] int final_cluster_of(std::uint32_t flow_idx) const;

  /// Flow indices ranked by trajectory cardinality descending (ties: longer
  /// route first, then lower index — deterministic).
  [[nodiscard]] std::span<const std::uint32_t> flows_by_density() const {
    return by_density_;
  }

  /// Segment count of the network the snapshot was built against.
  [[nodiscard]] std::size_t segment_count() const { return seg_offsets_.size() - 1; }

  /// Total trajectories participating in any flow (with multiplicity across
  /// flows collapsed per flow, not globally).
  [[nodiscard]] std::size_t total_participants() const { return total_participants_; }

  /// Full internal-consistency check, for tests and debug builds: CSR offsets
  /// monotonic, every indexed flow in range and actually routed over the
  /// segment, final_cluster_of matches final_clusters, density ranking is a
  /// permutation in the documented order. Returns true when consistent.
  [[nodiscard]] bool validate(const roadnet::RoadNetwork& net) const;

 private:
  ClusterSnapshot() = default;

  std::uint64_t version_{0};
  std::vector<FlowCluster> flows_;
  std::vector<FinalCluster> final_clusters_;
  std::vector<int> final_of_;                ///< Per flow; -1 = unclustered.
  std::vector<std::uint32_t> seg_offsets_;   ///< CSR offsets, segment_count+1.
  std::vector<std::uint32_t> seg_flow_ids_;  ///< CSR payload: flow indices.
  std::vector<std::uint32_t> by_density_;
  std::size_t total_participants_{0};
};

/// Single-slot RCU-style snapshot holder. current() copies the shared_ptr,
/// pinning "your" snapshot for the whole query; publish() swaps in a fresh
/// one. Both sides hold a plain mutex only for the pointer copy/swap itself
/// (a refcount bump — snapshots are built *outside* the store), so a publish
/// never stalls readers measurably; bench/serve_http_latency verifies this.
/// Versions must be strictly increasing (throws neat::PreconditionError
/// otherwise), so every reader observes a monotonic version sequence.
///
/// Implementation note: a std::atomic<std::shared_ptr> slot would promise
/// lock-free-ish reads, but libstdc++'s _Sp_atomic releases its internal
/// spin-lock with a relaxed RMW, so the protected pointer accesses are not
/// happens-before ordered under the formal memory model — ThreadSanitizer
/// (correctly) reports them. The mutex slot is provably race-free and
/// indistinguishable from the atomic slot in the publish-churn benchmark.
class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// The most recently published snapshot; nullptr before the first publish.
  [[nodiscard]] std::shared_ptr<const ClusterSnapshot> current() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

  /// Atomically replaces the current snapshot. `snapshot` must be non-null
  /// with a version strictly greater than the current one.
  void publish(std::shared_ptr<const ClusterSnapshot> snapshot);

  /// Version of the current snapshot (0 before the first publish).
  [[nodiscard]] std::uint64_t version() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ClusterSnapshot> snapshot_;
};

}  // namespace neat::serve
