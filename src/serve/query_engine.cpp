#include "serve/query_engine.h"

#include <limits>

#include "obs/trace.h"

namespace neat::serve {

QueryEngine::QueryEngine(const roadnet::RoadNetwork& net, const SnapshotStore& store)
    : net_(net), store_(store), grid_(net) {}

std::optional<NearestFlowHit> QueryEngine::nearest_flow(Point p, double max_radius,
                                                        std::uint64_t trace_id) const {
  if (trace_id == 0) trace_id = obs::next_trace_id();
  obs::ScopedSpan span("serve.query.nearest_flow");
  span.arg("trace_id", trace_id);
  const auto snap = store_.current();
  if (!snap) return std::nullopt;

  // Candidate route segments near the client, nearest-carrying-flow wins.
  std::optional<NearestFlowHit> best;
  for (const SegmentId sid : grid_.segments_within(p, max_radius)) {
    const auto flows = snap->flows_on_segment(sid);
    if (flows.empty()) continue;
    double dist = std::numeric_limits<double>::infinity();
    (void)net_.project_to_segment(sid, p, &dist);
    if (best && best->distance_m <= dist) continue;
    // Among flows sharing this segment: highest cardinality, then lowest
    // index (flows_on_segment lists ascending, so > keeps the first max).
    std::uint32_t pick = flows.front();
    for (const std::uint32_t f : flows) {
      if (snap->flows()[f].cardinality() > snap->flows()[pick].cardinality()) pick = f;
    }
    best = NearestFlowHit{trace_id,
                          snap->version(),
                          pick,
                          sid,
                          dist,
                          snap->final_cluster_of(pick),
                          snap->flows()[pick].cardinality()};
  }
  return best;
}

SegmentFlows QueryEngine::flows_on_segment(SegmentId sid,
                                           std::uint64_t trace_id) const {
  if (trace_id == 0) trace_id = obs::next_trace_id();
  obs::ScopedSpan span("serve.query.flows_on_segment");
  span.arg("trace_id", trace_id);
  SegmentFlows out;
  out.trace_id = trace_id;
  if (const auto snap = store_.current()) {
    out.snapshot_version = snap->version();
    const auto flows = snap->flows_on_segment(sid);
    out.flows.assign(flows.begin(), flows.end());
  }
  return out;
}

TopFlows QueryEngine::top_k_flows(std::size_t k, std::uint64_t trace_id) const {
  if (trace_id == 0) trace_id = obs::next_trace_id();
  obs::ScopedSpan span("serve.query.top_k_flows");
  span.arg("trace_id", trace_id);
  TopFlows out;
  out.trace_id = trace_id;
  if (const auto snap = store_.current()) {
    out.snapshot_version = snap->version();
    const auto ranked = snap->flows_by_density();
    out.flows.reserve(std::min(k, ranked.size()));
    for (std::size_t i = 0; i < ranked.size() && i < k; ++i) {
      const std::uint32_t f = ranked[i];
      const FlowCluster& flow = snap->flows()[f];
      out.flows.push_back(RankedFlow{f, flow.cardinality(), flow.route_length,
                                     snap->final_cluster_of(f)});
    }
  }
  return out;
}

}  // namespace neat::serve
