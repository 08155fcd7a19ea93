#include "roadnet/landmark_oracle.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/log/log.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "roadnet/shortest_path.h"

namespace neat::roadnet {

namespace {

using HeapEntry = std::pair<double, std::int32_t>;  // (cost, node)
using MinHeap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

/// Full undirected single-source Dijkstra, writing distances into `out`
/// (kInfDistance for unreachable nodes).
void full_sssp(const RoadNetwork& net, NodeId source, std::span<double> out) {
  std::fill(out.begin(), out.end(), kInfDistance);
  const auto idx = [](NodeId n) { return static_cast<std::size_t>(n.value()); };
  out[idx(source)] = 0.0;
  MinHeap heap;
  heap.emplace(0.0, source.value());
  while (!heap.empty()) {
    const auto [d, u_raw] = heap.top();
    heap.pop();
    const auto u = NodeId(u_raw);
    if (d > out[idx(u)]) continue;  // stale entry
    const std::span<const NodeId> far = net.star_far_ends(u);
    const std::span<const double> length = net.star_lengths(u);
    for (std::size_t k = 0; k < far.size(); ++k) {
      const NodeId v = far[k];
      const double nd = d + length[k];
      if (nd < out[idx(v)]) {
        out[idx(v)] = nd;
        heap.emplace(nd, v.value());
      }
    }
  }
}

/// The node with the largest finite value in `dist` whose `used` flag is
/// clear, smallest id on ties. Returns NodeId::invalid() when every finite
/// node is used.
NodeId farthest_node(std::span<const double> dist, std::span<const char> used) {
  NodeId best = NodeId::invalid();
  double best_d = -1.0;
  for (std::size_t i = 0; i < dist.size(); ++i) {
    if (used[i] || dist[i] == kInfDistance) continue;
    if (dist[i] > best_d) {
      best_d = dist[i];
      best = NodeId(static_cast<std::int32_t>(i));
    }
  }
  return best;
}

}  // namespace

LandmarkOracle::LandmarkOracle(const RoadNetwork& net, int count) : net_(net) {
  NEAT_EXPECT(count >= 1 && count <= kMaxLandmarks,
              str_cat("LandmarkOracle: landmark count must be in [1, ", kMaxLandmarks, "]"));
  NEAT_EXPECT(net.node_count() > 0, "LandmarkOracle: network has no junctions");
  obs::ScopedSpan span("landmark.build");
  const Stopwatch watch;
  const std::size_t n = net.node_count();
  stride_ = n;

  // Farthest-point selection. The probe run from node 0 only seeds the
  // process (its table is discarded): the first landmark is the node
  // farthest from the probe, i.e. on the periphery of node 0's component.
  std::vector<double> probe(n);
  full_sssp(net_, NodeId(0), probe);
  std::vector<char> used(n, 0);
  NodeId first = farthest_node(probe, used);
  if (!first.valid()) first = NodeId(0);  // isolated node 0: it is the landmark

  const std::size_t want = std::min<std::size_t>(static_cast<std::size_t>(count), n);
  landmarks_.reserve(want);
  dist_.reserve(want * n);
  // min over chosen landmarks of the distance to each node — the
  // farthest-point criterion for the next pick.
  std::vector<double> min_dist(n, kInfDistance);

  NodeId next = first;
  while (landmarks_.size() < want && next.valid()) {
    used[static_cast<std::size_t>(next.value())] = 1;
    landmarks_.push_back(next);
    const std::size_t row = dist_.size();
    dist_.resize(row + n);
    full_sssp(net_, next, std::span<double>(dist_).subspan(row, n));
    for (std::size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i], dist_[row + i]);
    }
    // Next landmark: the unused node farthest (in min-distance) from the
    // current set. Nodes at distance 0 or unreachable add no new bound.
    next = farthest_node(min_dist, used);
    if (next.valid() && min_dist[static_cast<std::size_t>(next.value())] <= 0.0) break;
  }

  obs::Registry& reg = obs::Registry::global();
  reg.set_help("neat_roadnet_landmark_builds_total", "Landmark (ALT) tables built.");
  reg.set_help("neat_roadnet_landmarks_selected_total",
               "Landmarks selected across landmark-table builds.");
  reg.set_help("neat_roadnet_landmark_build_duration_seconds",
               "Wall-clock time of landmark-table builds.");
  reg.counter("neat_roadnet_landmark_builds_total").add(1);
  reg.counter("neat_roadnet_landmarks_selected_total").add(landmarks_.size());
  reg.histogram("neat_roadnet_landmark_build_duration_seconds")
      .record(watch.elapsed_seconds());
  span.arg("landmarks", static_cast<std::uint64_t>(landmarks_.size()));
  span.arg("junctions", static_cast<std::uint64_t>(n));
  NEAT_LOG(kInfo, "roadnet")
      .msg("landmark tables built")
      .kv("landmarks", landmarks_.size())
      .kv("junctions", n)
      .kv("duration_ms", watch.elapsed_seconds() * 1e3);
}

double LandmarkOracle::lower_bound(NodeId s, NodeId t) const {
  static_cast<void>(net_.node(s));
  static_cast<void>(net_.node(t));
  const auto si = static_cast<std::size_t>(s.value());
  const auto ti = static_cast<std::size_t>(t.value());
  double best = 0.0;
  for (std::size_t l = 0; l < landmarks_.size(); ++l) {
    const double ds = dist_[l * stride_ + si];
    const double dt = dist_[l * stride_ + ti];
    const bool s_seen = ds < kInfDistance;
    const bool t_seen = dt < kInfDistance;
    if (s_seen != t_seen) return kInfDistance;  // provably different components
    if (!s_seen) continue;                      // landmark sees neither: no information
    best = std::max(best, std::fabs(ds - dt));
  }
  return best;
}

double LandmarkOracle::lower_bound_to_any(NodeId u, std::span<const NodeId> targets) const {
  if (targets.empty()) return 0.0;
  double best = kInfDistance;
  for (const NodeId t : targets) {
    best = std::min(best, lower_bound(u, t));
    if (best <= 0.0) return 0.0;
  }
  return best;
}

double LandmarkOracle::landmark_distance(std::size_t i, NodeId n) const {
  NEAT_EXPECT(i < landmarks_.size(), "LandmarkOracle: landmark index out of range");
  static_cast<void>(net_.node(n));
  return dist_[i * stride_ + static_cast<std::size_t>(n.value())];
}

}  // namespace neat::roadnet
