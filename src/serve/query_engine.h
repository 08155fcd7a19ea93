// Read path of the serving subsystem.
//
// A QueryEngine answers client queries against whatever ClusterSnapshot is
// current in the SnapshotStore at the moment the query starts; the snapshot
// is pinned (shared_ptr) for the duration of the query, so a concurrent
// publication never tears a result. All query methods are const and
// thread-safe — run as many query threads as you like against one engine.
// Spatial lookups reuse the road network's SegmentGridIndex (built once per
// engine; its const queries are thread-safe), mapping a client position to
// candidate road segments and then through the snapshot's segment → flows
// index to flows.
//
// Each query opens a span (serve.query.*) carrying its trace_id; the engine
// times and counts nothing itself. Served traffic is measured once, at the
// HTTP edge: net::HttpServer counts requests and net::QueryService times
// each /v1 handler.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "roadnet/spatial_index.h"
#include "serve/snapshot.h"

namespace neat::serve {

/// Answer to a point → nearest-flow lookup.
struct NearestFlowHit {
  std::uint64_t trace_id{0};     ///< Correlation id echoed from the request.
  std::uint64_t snapshot_version{0};
  std::uint32_t flow{0};         ///< Index into the answering snapshot's flows().
  SegmentId segment;             ///< Route segment that was nearest to the query.
  double distance_m{0.0};        ///< Point-to-segment distance.
  int final_cluster{-1};         ///< Final cluster of the flow; -1 = none.
  int cardinality{0};            ///< Trajectory cardinality of the flow.
};

/// Answer to a segment → flows membership query.
struct SegmentFlows {
  std::uint64_t trace_id{0};         ///< Correlation id echoed from the request.
  std::uint64_t snapshot_version{0};
  std::vector<std::uint32_t> flows;  ///< Flow indices traversing the segment.
};

/// One entry of a top-k densest-flows answer.
struct RankedFlow {
  std::uint32_t flow{0};
  int cardinality{0};
  double route_length_m{0.0};
  int final_cluster{-1};
};

/// Answer to a top-k densest-flows query.
struct TopFlows {
  std::uint64_t trace_id{0};         ///< Correlation id echoed from the request.
  std::uint64_t snapshot_version{0};
  std::vector<RankedFlow> flows;  ///< Densest first; at most k entries.
};

/// Thread-safe query front end over a SnapshotStore.
class QueryEngine {
 public:
  /// Keeps references to `net` and `store`; do not outlive them. Builds the
  /// engine's segment grid index eagerly.
  QueryEngine(const roadnet::RoadNetwork& net, const SnapshotStore& store);

  /// The flow passing closest to `p`, looking at route segments within
  /// `max_radius` metres. Ties (flows sharing the nearest segment) resolve
  /// to the highest-cardinality flow, then the lowest index. nullopt when no
  /// flow routes within the radius or no snapshot is published yet.
  ///
  /// Every query method takes an optional request-correlation `trace_id`
  /// (obs::next_trace_id() is minted when 0): the id is attached to the
  /// query's span as an arg and echoed in the answer, so one trace search
  /// follows one request end-to-end across ingest and query spans.
  [[nodiscard]] std::optional<NearestFlowHit> nearest_flow(
      Point p, double max_radius, std::uint64_t trace_id = 0) const;

  /// All flows whose representative route traverses `sid` (ascending index
  /// order). Empty list when none or no snapshot yet.
  [[nodiscard]] SegmentFlows flows_on_segment(SegmentId sid,
                                              std::uint64_t trace_id = 0) const;

  /// The `k` densest flows (trajectory cardinality desc). Fewer when the
  /// snapshot holds fewer flows; empty when no snapshot yet.
  [[nodiscard]] TopFlows top_k_flows(std::size_t k, std::uint64_t trace_id = 0) const;

  /// Pins and returns the current snapshot (nullptr before first publish).
  /// For callers needing multiple consistent reads from one version.
  [[nodiscard]] std::shared_ptr<const ClusterSnapshot> snapshot() const {
    return store_.current();
  }

  [[nodiscard]] const roadnet::SegmentGridIndex& grid() const { return grid_; }

 private:
  const roadnet::RoadNetwork& net_;
  const SnapshotStore& store_;
  roadnet::SegmentGridIndex grid_;
};

}  // namespace neat::serve
