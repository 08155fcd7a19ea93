#include "roadnet/shortest_path.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>

#include "common/error.h"
#include "roadnet/landmark_oracle.h"

namespace neat::roadnet {

namespace {

using HeapEntry = std::pair<double, std::int32_t>;  // (cost, node)
using MinHeap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

double edge_weight(const RoadNetwork& net, const DirectedEdge& e, Metric metric) {
  const Segment& s = net.segment(e.sid);
  return metric == Metric::kDistance ? s.length : s.length / s.speed_limit;
}

}  // namespace

std::vector<NodeId> Route::node_path(const RoadNetwork& net) const {
  std::vector<NodeId> nodes;
  if (edges.empty()) return nodes;
  nodes.reserve(edges.size() + 1);
  nodes.push_back(net.edge(edges.front()).from);
  for (const EdgeId e : edges) nodes.push_back(net.edge(e).to);
  return nodes;
}

NodeDistanceOracle::NodeDistanceOracle(const RoadNetwork& net)
    : net_(net), dist_(net.node_count(), kInfDistance), stamp_(net.node_count(), 0) {}

double NodeDistanceOracle::search(NodeId s, std::span<const NodeId> targets,
                                  std::span<double> out, double bound,
                                  const LandmarkOracle* alt, bool first_only) {
  for (const NodeId t : targets) static_cast<void>(net_.node(t));
  ++computations_;
  // The ALT potential: a consistent lower bound on the distance from `u` to
  // the nearest target. With it the heap is keyed on f = g + h, turning the
  // Dijkstra into an A* that settles fewer nodes yet returns the exact same
  // distances (h is admissible and h(target) = 0). Without landmarks h = 0
  // and this is the plain bounded Dijkstra.
  const auto potential = [&](NodeId u) {
    return alt == nullptr ? 0.0 : alt->lower_bound_to_any(u, targets);
  };

  if (!out.empty()) std::fill(out.begin(), out.end(), kInfDistance);
  target_done_.assign(targets.size(), 0);
  std::size_t remaining = targets.size();
  for (std::size_t k = 0; k < targets.size(); ++k) {
    if (targets[k] != s) continue;
    if (first_only) return 0.0;
    out[k] = 0.0;
    target_done_[k] = 1;
    --remaining;
  }
  if (remaining == 0) return 0.0;

  ++generation_;
  const auto idx = [](NodeId n) { return static_cast<std::size_t>(n.value()); };
  dist_[idx(s)] = 0.0;
  stamp_[idx(s)] = generation_;

  MinHeap heap;
  heap.emplace(potential(s), s.value());
  while (!heap.empty()) {
    const auto [f, u_raw] = heap.top();
    heap.pop();
    const auto u = NodeId(u_raw);
    const double g = dist_[idx(u)];
    if (f > g + potential(u)) continue;  // stale entry (g improved since push)
    // f lower-bounds the cost of reaching any remaining target through `u`,
    // and pops are non-decreasing in f, so the whole frontier is out of
    // range. Unsettled targets keep kInfDistance.
    if (f > bound) break;
    ++settled_;
    for (std::size_t k = 0; k < targets.size(); ++k) {
      if (target_done_[k] || targets[k] != u) continue;
      if (first_only) return g;
      out[k] = g;
      target_done_[k] = 1;
      if (--remaining == 0) return 0.0;
    }
    for (const SegmentId sid : net_.segments_at(u)) {
      const Segment& seg = net_.segment(sid);
      const NodeId v = (seg.a == u) ? seg.b : seg.a;
      const double nd = g + seg.length;
      if (stamp_[idx(v)] != generation_ || nd < dist_[idx(v)]) {
        dist_[idx(v)] = nd;
        stamp_[idx(v)] = generation_;
        heap.emplace(nd + potential(v), v.value());
      }
    }
  }
  return kInfDistance;
}

double NodeDistanceOracle::distance(NodeId s, NodeId t, double bound,
                                    const LandmarkOracle* alt) {
  static_cast<void>(net_.node(s));
  const NodeId targets[1] = {t};
  return search(s, targets, {}, bound, alt, /*first_only=*/true);
}

double NodeDistanceOracle::distance_to_any(NodeId s, std::span<const NodeId> targets,
                                           double bound, const LandmarkOracle* alt) {
  static_cast<void>(net_.node(s));
  if (targets.empty()) return kInfDistance;  // nothing to reach; no search issued
  return search(s, targets, {}, bound, alt, /*first_only=*/true);
}

void NodeDistanceOracle::distances(NodeId s, std::span<const NodeId> targets,
                                   std::span<double> out, double bound,
                                   const LandmarkOracle* alt) {
  static_cast<void>(net_.node(s));
  NEAT_EXPECT(out.size() == targets.size(),
              "NodeDistanceOracle::distances: out.size() must equal targets.size()");
  if (targets.empty()) return;
  static_cast<void>(search(s, targets, out, bound, alt, /*first_only=*/false));
}

void NodeDistanceOracle::reset_counters() {
  computations_ = 0;
  settled_ = 0;
}

double node_distance(const RoadNetwork& net, NodeId s, NodeId t, double bound) {
  NodeDistanceOracle oracle(net);
  return oracle.distance(s, t, bound);
}

std::optional<std::vector<NodeId>> shortest_node_path(const RoadNetwork& net, NodeId s,
                                                      NodeId t, double bound) {
  static_cast<void>(net.node(s));
  static_cast<void>(net.node(t));
  if (s == t) return std::vector<NodeId>{s};

  const std::size_t n = net.node_count();
  std::vector<double> dist(n, kInfDistance);
  std::vector<NodeId> parent(n, NodeId::invalid());
  const auto idx = [](NodeId x) { return static_cast<std::size_t>(x.value()); };
  dist[idx(s)] = 0.0;
  MinHeap heap;
  heap.emplace(0.0, s.value());
  while (!heap.empty()) {
    const auto [d, u_raw] = heap.top();
    heap.pop();
    const auto u = NodeId(u_raw);
    if (d > dist[idx(u)]) continue;
    if (d > bound) return std::nullopt;
    if (u == t) break;
    for (const SegmentId sid : net.segments_at(u)) {
      const Segment& seg = net.segment(sid);
      const NodeId v = (seg.a == u) ? seg.b : seg.a;
      const double nd = d + seg.length;
      if (nd < dist[idx(v)]) {
        dist[idx(v)] = nd;
        parent[idx(v)] = u;
        heap.emplace(nd, v.value());
      }
    }
  }
  if (dist[idx(t)] == kInfDistance) return std::nullopt;
  std::vector<NodeId> path;
  for (NodeId cur = t; cur.valid(); cur = parent[idx(cur)]) path.push_back(cur);
  std::reverse(path.begin(), path.end());
  return path;
}

std::optional<Route> shortest_route(const RoadNetwork& net, NodeId s, NodeId t,
                                    Metric metric, double max_cost) {
  static_cast<void>(net.node(s));
  static_cast<void>(net.node(t));
  const std::size_t n = net.node_count();
  std::vector<double> cost(n, kInfDistance);
  std::vector<EdgeId> parent(n, EdgeId::invalid());
  const auto idx = [](NodeId x) { return static_cast<std::size_t>(x.value()); };
  cost[idx(s)] = 0.0;
  MinHeap heap;
  heap.emplace(0.0, s.value());
  while (!heap.empty()) {
    const auto [d, u_raw] = heap.top();
    heap.pop();
    const auto u = NodeId(u_raw);
    if (d > cost[idx(u)]) continue;
    if (d > max_cost) return std::nullopt;
    if (u == t) break;
    for (const EdgeId eid : net.out_edges(u)) {
      const DirectedEdge& e = net.edge(eid);
      const double nd = d + edge_weight(net, e, metric);
      if (nd < cost[idx(e.to)]) {
        cost[idx(e.to)] = nd;
        parent[idx(e.to)] = eid;
        heap.emplace(nd, e.to.value());
      }
    }
  }
  if (cost[idx(t)] == kInfDistance) return std::nullopt;

  Route route;
  for (NodeId cur = t; cur != s;) {
    const EdgeId eid = parent[idx(cur)];
    route.edges.push_back(eid);
    cur = net.edge(eid).from;
  }
  std::reverse(route.edges.begin(), route.edges.end());
  for (const EdgeId eid : route.edges) {
    const Segment& seg = net.segment(net.edge(eid).sid);
    route.length += seg.length;
    route.travel_time += seg.length / seg.speed_limit;
  }
  return route;
}

double location_distance(const RoadNetwork& net, NetworkLocation a, NetworkLocation b,
                         NodeDistanceOracle& oracle) {
  const Segment& sa = net.segment(a.sid);
  const Segment& sb = net.segment(b.sid);
  const double oa = std::clamp(a.offset, 0.0, sa.length);
  const double ob = std::clamp(b.offset, 0.0, sb.length);
  if (a.sid == b.sid) return std::fabs(oa - ob);

  // Legs from each location to its segment's endpoints.
  const std::array<std::pair<NodeId, double>, 2> ends_a{
      std::pair{sa.a, oa}, std::pair{sa.b, sa.length - oa}};
  const std::array<std::pair<NodeId, double>, 2> ends_b{
      std::pair{sb.a, ob}, std::pair{sb.b, sb.length - ob}};
  double best = kInfDistance;
  for (const auto& [u, leg_a] : ends_a) {
    for (const auto& [v, leg_b] : ends_b) {
      const double mid = (u == v) ? 0.0 : oracle.distance(u, v);
      if (mid < kInfDistance) best = std::min(best, leg_a + mid + leg_b);
    }
  }
  return best;
}

double location_distance(const RoadNetwork& net, NetworkLocation a, NetworkLocation b) {
  NodeDistanceOracle oracle(net);
  return location_distance(net, a, b, oracle);
}

ReverseSsspTree::ReverseSsspTree(const RoadNetwork& net, NodeId target, Metric metric)
    : net_(net),
      target_(target),
      cost_(net.node_count(), kInfDistance),
      next_edge_(net.node_count(), EdgeId::invalid()) {
  static_cast<void>(net.node(target));
  const auto idx = [](NodeId x) { return static_cast<std::size_t>(x.value()); };
  cost_[idx(target)] = 0.0;
  MinHeap heap;
  heap.emplace(0.0, target.value());
  while (!heap.empty()) {
    const auto [d, u_raw] = heap.top();
    heap.pop();
    const auto u = NodeId(u_raw);
    if (d > cost_[idx(u)]) continue;
    for (const EdgeId eid : net.in_edges(u)) {
      const DirectedEdge& e = net.edge(eid);  // e.from -> u
      const double nd = d + edge_weight(net, e, metric);
      if (nd < cost_[idx(e.from)]) {
        cost_[idx(e.from)] = nd;
        next_edge_[idx(e.from)] = eid;
        heap.emplace(nd, e.from.value());
      }
    }
  }
}

bool ReverseSsspTree::reachable_from(NodeId s) const { return cost_from(s) < kInfDistance; }

double ReverseSsspTree::cost_from(NodeId s) const {
  static_cast<void>(net_.node(s));
  return cost_[static_cast<std::size_t>(s.value())];
}

std::optional<Route> ReverseSsspTree::route_from(NodeId s) const {
  if (!reachable_from(s)) return std::nullopt;
  Route route;
  const auto idx = [](NodeId x) { return static_cast<std::size_t>(x.value()); };
  for (NodeId cur = s; cur != target_;) {
    const EdgeId eid = next_edge_[idx(cur)];
    route.edges.push_back(eid);
    cur = net_.edge(eid).to;
  }
  for (const EdgeId eid : route.edges) {
    const Segment& seg = net_.segment(net_.edge(eid).sid);
    route.length += seg.length;
    route.travel_time += seg.length / seg.speed_limit;
  }
  return route;
}

}  // namespace neat::roadnet
