#include "core/flow_builder.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "core/netflow.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace neat {

SelectivityFactors selectivity_factors(const roadnet::RoadNetwork& net,
                                       const BaseCluster& end_cluster,
                                       const BaseCluster& candidate,
                                       const std::vector<const BaseCluster*>& neighborhood) {
  SelectivityFactors f;
  // Flow factor q (Eq. 1): shared trajectories over the end cluster's own
  // cardinality.
  const int card = end_cluster.cardinality();
  f.q = card > 0 ? static_cast<double>(netflow(end_cluster, candidate)) / card : 0.0;

  // Density factor k (Eq. 2): candidate density relative to the end cluster
  // plus its whole neighborhood.
  double density_sum = end_cluster.density();
  for (const BaseCluster* s : neighborhood) density_sum += s->density();
  f.k = density_sum > 0.0 ? candidate.density() / density_sum : 0.0;

  // Speed-limit factor v (Eq. 3): candidate speed relative to the
  // neighborhood's total speed.
  double speed_sum = 0.0;
  for (const BaseCluster* s : neighborhood) speed_sum += net.segment_speed(s->sid());
  f.v = speed_sum > 0.0 ? net.segment_speed(candidate.sid()) / speed_sum : 0.0;
  return f;
}

FlowBuilder::FlowBuilder(const roadnet::RoadNetwork& net,
                         const std::vector<BaseCluster>& base_clusters, FlowConfig config)
    : net_(net), base_(base_clusters), config_(config) {
  NEAT_EXPECT(config_.wq >= 0.0 && config_.wk >= 0.0 && config_.wv >= 0.0,
              "FlowConfig: weights must be non-negative");
  const double sum = config_.wq + config_.wk + config_.wv;
  NEAT_EXPECT(sum > 0.0, "FlowConfig: at least one weight must be positive");
  // Normalize so wq + wk + wv = 1 as Definition 10 requires.
  config_.wq /= sum;
  config_.wk /= sum;
  config_.wv /= sum;
  NEAT_EXPECT(config_.beta >= 1.0, "FlowConfig: beta must be >= 1 (or +infinity)");
}

Phase2Output FlowBuilder::build() const {
  obs::ScopedSpan span("phase2.build_flows");
  Phase2Output out;
  std::vector<bool> alive(base_.size(), true);
  // Dense lookup: segment id -> index into base_ (for alive neighbors).
  std::vector<std::int32_t> index_of(net_.segment_count(), -1);
  for (std::size_t i = 0; i < base_.size(); ++i) {
    index_of[static_cast<std::size_t>(base_[i].sid().value())] = static_cast<std::int32_t>(i);
  }

  // Collects the f-neighborhood of base cluster `ci` at endpoint `n`:
  // alive base clusters on adjacent segments with positive netflow
  // (Definition 6 restricted to unmerged clusters).
  const auto f_neighborhood = [&](std::size_t ci, NodeId n) {
    std::vector<std::size_t> hood;
    for (const SegmentId other : net_.segments_at(n)) {
      if (other == base_[ci].sid()) continue;
      const std::int32_t oi = index_of[static_cast<std::size_t>(other.value())];
      if (oi < 0 || !alive[static_cast<std::size_t>(oi)]) continue;
      if (netflow(base_[ci], base_[static_cast<std::size_t>(oi)]) > 0) {
        hood.push_back(static_cast<std::size_t>(oi));
      }
    }
    // segments_at order is construction order; sort for a stable contract.
    std::sort(hood.begin(), hood.end(),
              [&](std::size_t a, std::size_t b) { return base_[a].sid() < base_[b].sid(); });
    return hood;
  };

  // Picks the next base cluster to merge at endpoint `n` of end cluster
  // `ci`, honouring β-domination; returns base_.size() when the end stops.
  const auto select_merge = [&](std::size_t ci, NodeId n,
                                const std::vector<TrajectoryId>& flow_participants) {
    std::vector<std::size_t> hood = f_neighborhood(ci, n);
    // β-domination (§III-B.2): while some pair of f-neighbors has a mutual
    // netflow dominating the current maxFlow of `ci` at `n`, drop the pair —
    // they belong to a different major flow — and retry.
    while (hood.size() >= 2 && std::isfinite(config_.beta)) {
      int max_flow = 0;
      for (const std::size_t h : hood) max_flow = std::max(max_flow, netflow(base_[ci], base_[h]));
      if (max_flow == 0) break;
      bool removed = false;
      for (std::size_t x = 0; x < hood.size() && !removed; ++x) {
        for (std::size_t y = x + 1; y < hood.size() && !removed; ++y) {
          const int pair_flow = netflow(base_[hood[x]], base_[hood[y]]);
          if (pair_flow > 0 &&
              static_cast<double>(pair_flow) >= config_.beta * max_flow) {
            // Erase y first so x's index stays valid.
            hood.erase(hood.begin() + static_cast<std::ptrdiff_t>(y));
            hood.erase(hood.begin() + static_cast<std::ptrdiff_t>(x));
            removed = true;
          }
        }
      }
      if (!removed) break;
    }
    if (hood.empty()) return base_.size();

    std::vector<const BaseCluster*> hood_ptrs;
    hood_ptrs.reserve(hood.size());
    for (const std::size_t h : hood) hood_ptrs.push_back(&base_[h]);

    std::size_t best = base_.size();
    double best_sf = -1.0;
    int best_tie = -1;  // the best's tie-break netflow; -1 until a tie needs it
    for (const std::size_t h : hood) {
      const double sf =
          selectivity_factors(net_, base_[ci], base_[h], hood_ptrs).sf(config_);
      if (sf > best_sf + 1e-12) {
        best_tie = -1;
      } else {
        if (!(sf > best_sf - 1e-12)) continue;
        // Ties (e.g. equal maxFlow) break on the netflow with the whole flow
        // cluster (paper §III-B.2), then on the smaller segment id. Only a
        // tie pays for the flow-level netflow, of both candidates. (SF is
        // non-negative, so the first candidate never lands here.)
        if (best_tie < 0) best_tie = netflow(flow_participants, base_[best]);
        const int tie = netflow(flow_participants, base_[h]);
        if (tie < best_tie || (tie == best_tie && !(base_[h].sid() < base_[best].sid()))) {
          continue;
        }
        best_tie = tie;
      }
      best_sf = sf;
      best = h;
    }
    return best;
  };

  std::vector<FlowCluster> all_flows;
  // Base clusters arrive sorted by density: index 0 is the dense-core, and
  // each outer iteration below starts from the densest unmerged cluster.
  for (std::size_t seed = 0; seed < base_.size(); ++seed) {
    if (!alive[seed]) continue;
    alive[seed] = false;

    FlowCluster flow;
    flow.members = {seed};
    flow.route = {base_[seed].sid()};
    const roadnet::Segment& s0 = net_.segment(base_[seed].sid());
    flow.junctions = {s0.a, s0.b};
    flow.participants = base_[seed].participants();
    flow.route_length = s0.length;

    // Expand at the back, then at the front (paper: insertion at either end
    // of the ordered list; both are exhausted before the flow closes).
    for (const bool at_back : {true, false}) {
      while (true) {
        const std::size_t end_member = at_back ? flow.members.back() : flow.members.front();
        const NodeId end_node = at_back ? flow.junctions.back() : flow.junctions.front();
        const std::size_t next = select_merge(end_member, end_node, flow.participants);
        if (next == base_.size()) break;
        const SegmentId next_sid = base_[next].sid();
        const NodeId new_end = net_.other_endpoint(next_sid, end_node);
        if (at_back) {
          flow.members.push_back(next);
          flow.route.push_back(next_sid);
          flow.junctions.push_back(new_end);
        } else {
          flow.members.insert(flow.members.begin(), next);
          flow.route.insert(flow.route.begin(), next_sid);
          flow.junctions.insert(flow.junctions.begin(), new_end);
        }
        flow.participants = merge_participants(flow.participants, base_[next].participants());
        flow.route_length += net_.segment_length(next_sid);
        alive[next] = false;
      }
    }
    all_flows.push_back(std::move(flow));
  }

  // minCard filter. Negative threshold: the dataset-adaptive default (the
  // average flow cardinality).
  double min_card = config_.min_card;
  if (min_card < 0.0) {
    double card_sum = 0.0;
    for (const FlowCluster& f : all_flows) card_sum += f.cardinality();
    min_card = all_flows.empty() ? 0.0 : card_sum / static_cast<double>(all_flows.size());
  }
  out.effective_min_card = min_card;
  for (FlowCluster& f : all_flows) {
    if (static_cast<double>(f.cardinality()) >= min_card) {
      out.flows.push_back(std::move(f));
    } else {
      out.filtered_flows.push_back(std::move(f));
    }
  }

  obs::Registry& reg = obs::Registry::global();
  reg.set_help("neat_core_flow_clusters_total", "Flow clusters Phase 2 kept.");
  reg.set_help("neat_core_filtered_flows_total",
               "Flow clusters Phase 2 dropped by the minimum-cardinality filter.");
  reg.counter("neat_core_flow_clusters_total").add(out.flows.size());
  reg.counter("neat_core_filtered_flows_total").add(out.filtered_flows.size());
  span.arg("base_clusters", static_cast<std::uint64_t>(base_.size()));
  span.arg("flows", static_cast<std::uint64_t>(out.flows.size()));
  span.arg("filtered", static_cast<std::uint64_t>(out.filtered_flows.size()));
  span.arg("effective_min_card", out.effective_min_card);
  return out;
}

}  // namespace neat
