// The road-network graph model of the NEAT paper (§II-A).
//
// A road network is a directed graph G = (V, E) of junction nodes and
// directed edges, where a *road segment* (identified by SegmentId, the
// paper's `sid`) contributes one directed edge per travel direction; both
// directions of a bidirectional segment share the same sid. NEAT's
// clustering operates at the segment level (base clusters are keyed by sid),
// while the mobility simulator routes over directed edges.
//
// The class exposes the paper's primitive operations:
//   * L_n(e)  — adjacent segments of segment e at junction n
//               (`adjacent_segments`),
//   * L(e)    — adjacency at either endpoint (union of the two calls),
//   * I(e,e') — the shared junction of two adjacent segments
//               (`shared_junction`).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"

namespace neat::roadnet {

/// A road junction.
struct Node {
  Point pos;
};

/// An undirected road segment between two junctions. Geometry is the straight
/// line between the endpoint positions; `length` may exceed the straight-line
/// distance (curvy roads) but never undercuts it, preserving the Euclidean
/// lower bound used by NEAT Phase 3.
struct Segment {
  NodeId a;                  ///< First endpoint (travel origin if one-way).
  NodeId b;                  ///< Second endpoint.
  double length{0.0};        ///< Metres.
  double speed_limit{13.9};  ///< Metres/second.
  bool bidirectional{true};  ///< False: traversable only a -> b.
};

/// One travel direction of a segment.
struct DirectedEdge {
  SegmentId sid;
  NodeId from;
  NodeId to;
};

/// Aggregate statistics in the shape of the paper's Table I.
struct NetworkStats {
  std::size_t num_segments{0};
  std::size_t num_junctions{0};
  double total_length_km{0.0};
  double avg_segment_length_m{0.0};
  double avg_junction_degree{0.0};
  int max_junction_degree{0};
};

/// Axis-aligned bounding box of the network geometry.
struct Bounds {
  Point min;
  Point max;
};

/// Immutable road-network graph. Build instances with RoadNetworkBuilder or
/// load them with roadnet::load_network.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  /// Constructs from parts; validates endpoint ids, lengths and speeds.
  /// Throws neat::PreconditionError on malformed input. Prefer the builder.
  RoadNetwork(std::vector<Node> nodes, std::vector<Segment> segments);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// Junction accessor. Throws neat::NotFoundError for invalid ids.
  [[nodiscard]] const Node& node(NodeId id) const;
  /// Segment accessor. Throws neat::NotFoundError for invalid ids.
  [[nodiscard]] const Segment& segment(SegmentId id) const;
  /// Directed-edge accessor. Throws neat::NotFoundError for invalid ids.
  [[nodiscard]] const DirectedEdge& edge(EdgeId id) const;

  /// Length of a segment in metres.
  [[nodiscard]] double segment_length(SegmentId id) const { return segment(id).length; }

  /// Speed limit of a segment in metres/second.
  [[nodiscard]] double segment_speed(SegmentId id) const { return segment(id).speed_limit; }

  /// Geometric point at `offset` metres from endpoint `a` along the segment
  /// (clamped to [0, length]).
  [[nodiscard]] Point point_on_segment(SegmentId id, double offset) const;

  /// Offset (from endpoint `a`) of the projection of `p` onto the segment,
  /// plus the projection distance via `out_dist` when non-null.
  [[nodiscard]] double project_to_segment(SegmentId id, Point p,
                                          double* out_dist = nullptr) const;

  // --- segment-level (undirected) topology: the NEAT primitives ------------

  /// All segments incident to junction `n` (the junction's star), in
  /// segment id order.
  [[nodiscard]] std::span<const SegmentId> segments_at(NodeId n) const {
    return row(star_begin_, star_segment_, n);
  }

  /// The far endpoints of the star of `n`, parallel to segments_at(n):
  /// entry k is other_endpoint(segments_at(n)[k], n).
  [[nodiscard]] std::span<const NodeId> star_far_ends(NodeId n) const {
    return row(star_begin_, star_far_, n);
  }

  /// The lengths of the star of `n`, parallel to segments_at(n): entry k
  /// is segment_length(segments_at(n)[k]). Shortest-path searches walk
  /// these two arrays instead of looking up every segment they relax.
  [[nodiscard]] std::span<const double> star_lengths(NodeId n) const {
    return row(star_begin_, star_length_, n);
  }

  /// The paper's L_n(e): segments adjacent to `s` at its endpoint `n`,
  /// excluding `s` itself. `n` must be an endpoint of `s`.
  [[nodiscard]] std::vector<SegmentId> adjacent_segments(SegmentId s, NodeId n) const;

  /// The paper's I(ei, ej): the junction shared by two distinct segments, or
  /// NodeId::invalid() when they are not adjacent. When the segments share
  /// both endpoints (parallel segments) the endpoint with the smaller id is
  /// returned, deterministically.
  [[nodiscard]] NodeId shared_junction(SegmentId s1, SegmentId s2) const;

  /// True when the two distinct segments share at least one junction.
  [[nodiscard]] bool are_adjacent(SegmentId s1, SegmentId s2) const;

  /// The endpoint of `s` that is not `n`. `n` must be an endpoint of `s`.
  [[nodiscard]] NodeId other_endpoint(SegmentId s, NodeId n) const;

  /// True when `n` is an endpoint of `s`.
  [[nodiscard]] bool is_endpoint(SegmentId s, NodeId n) const;

  /// Number of segments incident to the junction.
  [[nodiscard]] int junction_degree(NodeId n) const;

  // --- directed topology: used by routing / simulation ----------------------

  /// Directed edges leaving junction `n`, in edge id order.
  [[nodiscard]] std::span<const EdgeId> out_edges(NodeId n) const {
    return row(out_begin_, out_edge_, n);
  }

  /// Directed edges entering junction `n`, in edge id order.
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId n) const {
    return row(in_begin_, in_edge_, n);
  }

  /// The a->b directed edge of a segment.
  [[nodiscard]] EdgeId forward_edge(SegmentId s) const;

  /// The b->a directed edge, or EdgeId::invalid() for one-way segments.
  [[nodiscard]] EdgeId backward_edge(SegmentId s) const;

  /// The directed edge of segment `s` leaving node `from`, or invalid if the
  /// segment cannot be entered at that node.
  [[nodiscard]] EdgeId edge_from(SegmentId s, NodeId from) const;

  // --- whole-network queries -------------------------------------------------

  [[nodiscard]] NetworkStats stats() const;
  [[nodiscard]] Bounds bounding_box() const;

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }
  [[nodiscard]] const std::vector<DirectedEdge>& edges() const { return edges_; }

 private:
  void build_topology();

  /// Node `n`'s row of a flat adjacency: items[begin[n], begin[n + 1]).
  /// Throws neat::NotFoundError for invalid ids.
  template <typename T>
  [[nodiscard]] std::span<const T> row(const std::vector<std::uint32_t>& begin,
                                       const std::vector<T>& items, NodeId n) const {
    if (!n.valid() || static_cast<std::size_t>(n.value()) >= nodes_.size()) throw_no_node(n);
    const auto i = static_cast<std::size_t>(n.value());
    return {items.data() + begin[i], items.data() + begin[i + 1]};
  }
  [[noreturn]] static void throw_no_node(NodeId n);

  std::vector<Node> nodes_;
  std::vector<Segment> segments_;
  std::vector<DirectedEdge> edges_;
  // Flat (CSR) adjacency: one offset array of node_count() + 1 entries per
  // list, and the rows of all nodes back to back. The three star arrays
  // share star_begin_.
  std::vector<std::uint32_t> star_begin_;
  std::vector<SegmentId> star_segment_;
  std::vector<NodeId> star_far_;
  std::vector<double> star_length_;
  std::vector<std::uint32_t> out_begin_;
  std::vector<EdgeId> out_edge_;
  std::vector<std::uint32_t> in_begin_;
  std::vector<EdgeId> in_edge_;
  // Per segment: [forward edge, backward edge (invalid if one-way)].
  std::vector<std::array<EdgeId, 2>> segment_edges_;
};

}  // namespace neat::roadnet
