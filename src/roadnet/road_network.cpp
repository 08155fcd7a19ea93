#include "roadnet/road_network.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"

namespace neat::roadnet {

namespace {

void validate_parts(const std::vector<Node>& nodes, const std::vector<Segment>& segments) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    NEAT_EXPECT(std::isfinite(nodes[i].pos.x) && std::isfinite(nodes[i].pos.y),
                str_cat("node ", i, ": coordinates must be finite"));
  }
  // Segment ids are 32-bit, and the flat adjacency's 32-bit offsets count
  // two star entries per segment.
  NEAT_EXPECT(segments.size() <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()),
              "a network holds at most 2^31 - 1 segments");
  const auto n = static_cast<std::int64_t>(nodes.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Segment& s = segments[i];
    NEAT_EXPECT(std::isfinite(s.length) && std::isfinite(s.speed_limit),
                str_cat("segment ", i, ": length and speed must be finite"));
    NEAT_EXPECT(s.a.valid() && s.a.value() < n,
                str_cat("segment ", i, ": endpoint a out of range"));
    NEAT_EXPECT(s.b.valid() && s.b.value() < n,
                str_cat("segment ", i, ": endpoint b out of range"));
    NEAT_EXPECT(s.a != s.b, str_cat("segment ", i, ": self loops are not supported"));
    NEAT_EXPECT(s.length > 0.0, str_cat("segment ", i, ": length must be positive"));
    NEAT_EXPECT(s.speed_limit > 0.0, str_cat("segment ", i, ": speed limit must be positive"));
    const double straight = distance(nodes[static_cast<std::size_t>(s.a.value())].pos,
                                     nodes[static_cast<std::size_t>(s.b.value())].pos);
    NEAT_EXPECT(s.length >= straight - 1e-6,
                str_cat("segment ", i, ": length ", s.length,
                        " undercuts the straight-line distance ", straight,
                        " (would break the Euclidean lower bound)"));
  }
}

/// Turns row lengths (begin[v + 1] holds row v's) into CSR offsets in
/// place; returns each row's first slot, the fill cursor.
std::vector<std::uint32_t> counts_to_offsets(std::vector<std::uint32_t>& begin) {
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  return {begin.begin(), begin.end() - 1};
}

}  // namespace

RoadNetwork::RoadNetwork(std::vector<Node> nodes, std::vector<Segment> segments)
    : nodes_(std::move(nodes)), segments_(std::move(segments)) {
  validate_parts(nodes_, segments_);
  build_topology();
}

void RoadNetwork::build_topology() {
  const std::size_t n = nodes_.size();
  const auto at = [](NodeId v) { return static_cast<std::size_t>(v.value()); };
  segment_edges_.assign(segments_.size(), {EdgeId::invalid(), EdgeId::invalid()});
  edges_.clear();
  edges_.reserve(segments_.size() * 2);
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const auto sid = SegmentId(static_cast<std::int32_t>(i));
    const Segment& s = segments_[i];
    segment_edges_[i][0] = EdgeId(static_cast<std::int32_t>(edges_.size()));
    edges_.push_back(DirectedEdge{sid, s.a, s.b});
    if (s.bidirectional) {
      segment_edges_[i][1] = EdgeId(static_cast<std::int32_t>(edges_.size()));
      edges_.push_back(DirectedEdge{sid, s.b, s.a});
    }
  }

  // Count the rows, turn the counts into offsets, then fill the rows in id
  // order, so each row lists its segments (edges) by ascending id.
  star_begin_.assign(n + 1, 0);
  out_begin_.assign(n + 1, 0);
  in_begin_.assign(n + 1, 0);
  for (const Segment& s : segments_) {
    ++star_begin_[at(s.a) + 1];
    ++star_begin_[at(s.b) + 1];
  }
  for (const DirectedEdge& e : edges_) {
    ++out_begin_[at(e.from) + 1];
    ++in_begin_[at(e.to) + 1];
  }
  std::vector<std::uint32_t> star_next = counts_to_offsets(star_begin_);
  std::vector<std::uint32_t> out_next = counts_to_offsets(out_begin_);
  std::vector<std::uint32_t> in_next = counts_to_offsets(in_begin_);

  star_segment_.resize(star_begin_[n]);
  star_far_.resize(star_begin_[n]);
  star_length_.resize(star_begin_[n]);
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    for (const auto& [near, far] : {std::pair{s.a, s.b}, std::pair{s.b, s.a}}) {
      const std::uint32_t k = star_next[at(near)]++;
      star_segment_[k] = SegmentId(static_cast<std::int32_t>(i));
      star_far_[k] = far;
      star_length_[k] = s.length;
    }
  }
  out_edge_.resize(out_begin_[n]);
  in_edge_.resize(in_begin_[n]);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const auto eid = EdgeId(static_cast<std::int32_t>(i));
    out_edge_[out_next[at(edges_[i].from)]++] = eid;
    in_edge_[in_next[at(edges_[i].to)]++] = eid;
  }
}

void RoadNetwork::throw_no_node(NodeId n) {
  throw NotFoundError(str_cat("no such node: ", n.value()));
}

const Node& RoadNetwork::node(NodeId id) const {
  if (!id.valid() || static_cast<std::size_t>(id.value()) >= nodes_.size()) throw_no_node(id);
  return nodes_[static_cast<std::size_t>(id.value())];
}

const Segment& RoadNetwork::segment(SegmentId id) const {
  if (!id.valid() || static_cast<std::size_t>(id.value()) >= segments_.size()) {
    throw NotFoundError(str_cat("no such segment: ", id.value()));
  }
  return segments_[static_cast<std::size_t>(id.value())];
}

const DirectedEdge& RoadNetwork::edge(EdgeId id) const {
  if (!id.valid() || static_cast<std::size_t>(id.value()) >= edges_.size()) {
    throw NotFoundError(str_cat("no such edge: ", id.value()));
  }
  return edges_[static_cast<std::size_t>(id.value())];
}

Point RoadNetwork::point_on_segment(SegmentId id, double offset) const {
  const Segment& s = segment(id);
  const double t = s.length == 0.0 ? 0.0 : std::clamp(offset / s.length, 0.0, 1.0);
  return lerp(node(s.a).pos, node(s.b).pos, t);
}

double RoadNetwork::project_to_segment(SegmentId id, Point p, double* out_dist) const {
  const Segment& s = segment(id);
  const Projection proj = project_onto_segment(p, node(s.a).pos, node(s.b).pos);
  if (out_dist != nullptr) *out_dist = proj.dist;
  return proj.t * s.length;
}

std::vector<SegmentId> RoadNetwork::adjacent_segments(SegmentId s, NodeId n) const {
  NEAT_EXPECT(is_endpoint(s, n), "adjacent_segments: node is not an endpoint of the segment");
  std::vector<SegmentId> out;
  for (const SegmentId other : segments_at(n)) {
    if (other != s) out.push_back(other);
  }
  return out;
}

NodeId RoadNetwork::shared_junction(SegmentId s1, SegmentId s2) const {
  const Segment& a = segment(s1);
  const Segment& b = segment(s2);
  if (s1 == s2) return NodeId::invalid();
  NodeId best = NodeId::invalid();
  for (const NodeId u : {a.a, a.b}) {
    if (u == b.a || u == b.b) {
      if (!best.valid() || u < best) best = u;
    }
  }
  return best;
}

bool RoadNetwork::are_adjacent(SegmentId s1, SegmentId s2) const {
  return shared_junction(s1, s2).valid();
}

NodeId RoadNetwork::other_endpoint(SegmentId s, NodeId n) const {
  const Segment& seg = segment(s);
  if (seg.a == n) return seg.b;
  if (seg.b == n) return seg.a;
  throw PreconditionError(str_cat("node ", n.value(), " is not an endpoint of segment ",
                                  s.value()));
}

bool RoadNetwork::is_endpoint(SegmentId s, NodeId n) const {
  const Segment& seg = segment(s);
  return seg.a == n || seg.b == n;
}

int RoadNetwork::junction_degree(NodeId n) const {
  return static_cast<int>(segments_at(n).size());
}

EdgeId RoadNetwork::forward_edge(SegmentId s) const {
  static_cast<void>(segment(s));  // bounds check
  return segment_edges_[static_cast<std::size_t>(s.value())][0];
}

EdgeId RoadNetwork::backward_edge(SegmentId s) const {
  static_cast<void>(segment(s));  // bounds check
  return segment_edges_[static_cast<std::size_t>(s.value())][1];
}

EdgeId RoadNetwork::edge_from(SegmentId s, NodeId from) const {
  const Segment& seg = segment(s);
  if (seg.a == from) return forward_edge(s);
  if (seg.b == from) return backward_edge(s);
  return EdgeId::invalid();
}

NetworkStats RoadNetwork::stats() const {
  NetworkStats st;
  st.num_segments = segments_.size();
  st.num_junctions = nodes_.size();
  double total_m = 0.0;
  for (const Segment& s : segments_) total_m += s.length;
  st.total_length_km = total_m / 1000.0;
  st.avg_segment_length_m = segments_.empty() ? 0.0 : total_m / static_cast<double>(segments_.size());
  std::size_t degree_sum = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::uint32_t degree = star_begin_[i + 1] - star_begin_[i];
    degree_sum += degree;
    st.max_junction_degree = std::max(st.max_junction_degree, static_cast<int>(degree));
  }
  st.avg_junction_degree =
      nodes_.empty() ? 0.0 : static_cast<double>(degree_sum) / static_cast<double>(nodes_.size());
  return st;
}

Bounds RoadNetwork::bounding_box() const {
  Bounds b{{0, 0}, {0, 0}};
  if (nodes_.empty()) return b;
  b.min = b.max = nodes_.front().pos;
  for (const Node& n : nodes_) {
    b.min.x = std::min(b.min.x, n.pos.x);
    b.min.y = std::min(b.min.y, n.pos.y);
    b.max.x = std::max(b.max.x, n.pos.x);
    b.max.y = std::max(b.max.y, n.pos.y);
  }
  return b;
}

}  // namespace neat::roadnet
