#include "core/fragmenter.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_set>

#include "common/error.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "roadnet/shortest_path.h"

namespace neat {

namespace {

using roadnet::RoadNetwork;

/// The junction shared by two adjacent segments that the object most
/// plausibly crossed: the one minimizing detour between the two observed
/// positions. Ties break toward the smaller node id (determinism).
NodeId crossing_junction(const RoadNetwork& net, SegmentId from, SegmentId to,
                         Point from_pos, Point to_pos) {
  const roadnet::Segment& a = net.segment(from);
  const roadnet::Segment& b = net.segment(to);
  NodeId best = NodeId::invalid();
  double best_cost = std::numeric_limits<double>::infinity();
  for (const NodeId u : {a.a, a.b}) {
    if (u != b.a && u != b.b) continue;
    const Point up = net.node(u).pos;
    const double cost = distance(from_pos, up) + distance(up, to_pos);
    if (cost < best_cost - 1e-12 || (cost < best_cost + 1e-12 && (!best.valid() || u < best))) {
      best_cost = cost;
      best = u;
    }
  }
  return best;
}

/// A repaired gap between two non-contiguous samples: the junction sequence
/// (exit endpoint of the old segment … entry endpoint of the new one) plus
/// the intermediate segments between consecutive junctions.
struct GapRepair {
  std::vector<NodeId> junctions;       ///< At least {u, v}.
  std::vector<SegmentId> between;      ///< junctions.size() - 1 segments.
};

std::optional<SegmentId> segment_between(const RoadNetwork& net, NodeId a, NodeId b) {
  SegmentId best = SegmentId::invalid();
  for (const SegmentId sid : net.segments_at(a)) {
    if (net.other_endpoint(sid, a) == b && (!best.valid() || sid < best)) best = sid;
  }
  if (!best.valid()) return std::nullopt;
  return best;
}

std::optional<GapRepair> repair_gap(const RoadNetwork& net, SegmentId from, SegmentId to,
                                    Point from_pos, Point to_pos) {
  const roadnet::Segment& a = net.segment(from);
  const roadnet::Segment& b = net.segment(to);

  // Try the four exit/entry endpoint combinations with a bounded directed
  // search; the travelled detour between two consecutive samples is short.
  std::optional<GapRepair> best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const NodeId u : {a.a, a.b}) {
    for (const NodeId v : {b.a, b.b}) {
      if (u == v) continue;  // would mean the segments are adjacent
      const double crowfly = distance(net.node(u).pos, net.node(v).pos);
      const double bound = 4.0 * crowfly + 2000.0;
      const auto route = roadnet::shortest_route(net, u, v, roadnet::Metric::kDistance, bound);
      if (!route) continue;
      const double cost =
          distance(from_pos, net.node(u).pos) + route->length + distance(net.node(v).pos, to_pos);
      if (cost < best_cost) {
        best_cost = cost;
        GapRepair repair;
        repair.junctions = route->node_path(net);
        repair.between.clear();
        for (const EdgeId eid : route->edges) repair.between.push_back(net.edge(eid).sid);
        best = std::move(repair);
      }
    }
  }
  if (best) return best;

  // Fallback: undirected, unbounded — covers data recorded against one-way
  // restrictions or very long outages.
  NodeId bu = NodeId::invalid();
  NodeId bv = NodeId::invalid();
  double approach_best = std::numeric_limits<double>::infinity();
  for (const NodeId u : {a.a, a.b}) {
    for (const NodeId v : {b.a, b.b}) {
      if (u == v) continue;
      const double c = distance(from_pos, net.node(u).pos) +
                       distance(net.node(v).pos, to_pos);
      if (c < approach_best) {
        approach_best = c;
        bu = u;
        bv = v;
      }
    }
  }
  if (!bu.valid()) return std::nullopt;
  const auto nodes = roadnet::shortest_node_path(net, bu, bv);
  if (!nodes) return std::nullopt;
  GapRepair repair;
  repair.junctions = *nodes;
  for (std::size_t i = 1; i < nodes->size(); ++i) {
    const auto sid = segment_between(net, (*nodes)[i - 1], (*nodes)[i]);
    if (!sid) return std::nullopt;
    repair.between.push_back(*sid);
  }
  return repair;
}

/// Shared Phase 1 walk. Hands each closed fragment, in travel order, to
/// `emit(const TFragment&)`, and appends the augmented point sequence to
/// `augmented` (if non-null).
template <typename Sink>
void walk(const RoadNetwork& net, const traj::Trajectory& tr, const Sink& emit,
          traj::Trajectory* augmented, std::size_t* gap_repairs) {
  if (tr.empty()) return;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    static_cast<void>(net.segment(tr.point(i).sid));  // validates every referenced segment
  }

  TFragment cur;
  cur.trid = tr.id();
  cur.sid = tr.front().sid;
  cur.entry = tr.front();
  cur.exit = tr.front();
  cur.num_samples = 1;
  if (augmented != nullptr) augmented->append(tr.front());

  const auto close_and_reopen = [&](const traj::Location& boundary, SegmentId next_sid) {
    // `boundary` is a junction point: it ends the current fragment and
    // starts the next one (on `next_sid`).
    traj::Location exit_loc = boundary;
    exit_loc.sid = cur.sid;
    cur.exit = exit_loc;
    emit(cur);
    traj::Location entry_loc = boundary;
    entry_loc.sid = next_sid;
    cur = TFragment{};
    cur.trid = tr.id();
    cur.sid = next_sid;
    cur.entry = entry_loc;
    cur.exit = entry_loc;
    cur.num_samples = 0;
    if (augmented != nullptr) augmented->append(entry_loc);
  };

  for (std::size_t i = 1; i < tr.size(); ++i) {
    const traj::Location& p = tr.point(i);
    if (p.sid == cur.sid) {
      cur.exit = p;
      ++cur.num_samples;
      if (augmented != nullptr) augmented->append(p);
      continue;
    }

    const double t_prev = cur.exit.t;
    const NodeId shared = crossing_junction(net, cur.sid, p.sid, cur.exit.pos, p.pos);
    if (shared.valid()) {
      // Contiguous segments: insert the crossing junction (paper §III-A.1).
      const Point jp = net.node(shared).pos;
      const double d0 = distance(cur.exit.pos, jp);
      const double d1 = distance(jp, p.pos);
      const double frac = (d0 + d1) > 0.0 ? d0 / (d0 + d1) : 0.0;
      const double jt = t_prev + (p.t - t_prev) * frac;
      close_and_reopen(traj::Location{cur.sid, jp, jt, true}, p.sid);
    } else {
      // Non-contiguous: recover the junction sequence along the travel path.
      const auto repair = repair_gap(net, cur.sid, p.sid, cur.exit.pos, p.pos);
      if (repair && !repair->junctions.empty()) {
        if (gap_repairs != nullptr) ++(*gap_repairs);
        // Distance-proportional timestamps over exit -> u -> … -> v -> p.
        std::vector<double> cum;
        cum.reserve(repair->junctions.size() + 1);
        double run = distance(cur.exit.pos, net.node(repair->junctions.front()).pos);
        cum.push_back(run);
        for (std::size_t k = 1; k < repair->junctions.size(); ++k) {
          run += net.segment_length(repair->between[k - 1]);
          cum.push_back(run);
        }
        const double total =
            run + distance(net.node(repair->junctions.back()).pos, p.pos);
        const auto time_at = [&](double d) {
          return total > 0.0 ? t_prev + (p.t - t_prev) * (d / total) : t_prev;
        };
        for (std::size_t k = 0; k < repair->junctions.size(); ++k) {
          const SegmentId next_sid =
              (k < repair->between.size()) ? repair->between[k] : p.sid;
          close_and_reopen(traj::Location{cur.sid, net.node(repair->junctions[k]).pos,
                                          time_at(cum[k]), true},
                           next_sid);
        }
      } else {
        // Unrepairable (different components): break the trajectory here.
        emit(cur);
        cur = TFragment{};
        cur.trid = tr.id();
        cur.sid = p.sid;
        cur.entry = p;
        cur.num_samples = 0;
      }
    }
    cur.exit = p;
    ++cur.num_samples;
    if (augmented != nullptr) augmented->append(p);
  }
  emit(cur);
}

/// Bulk registry update once per build, so per-fragment loops stay free of
/// shared atomics.
void record_phase1_counters(std::size_t trajectories, const Phase1Output& out) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_help("neat_core_trajectories_total", "Trajectories Phase 1 fragmented.");
  reg.set_help("neat_core_fragments_total", "t-fragments Phase 1 extracted.");
  reg.set_help("neat_core_gap_repairs_total",
               "Non-contiguous sample pairs Phase 1 repaired.");
  reg.set_help("neat_core_base_clusters_total", "Base clusters Phase 1 built.");
  reg.counter("neat_core_trajectories_total").add(trajectories);
  reg.counter("neat_core_fragments_total").add(out.num_fragments);
  reg.counter("neat_core_gap_repairs_total").add(out.num_gap_repairs);
  reg.counter("neat_core_base_clusters_total").add(out.base_clusters.size());
}

/// Base clusters per chunk of the parallel finalize.
constexpr std::size_t kFinalizeChunk = 256;

/// The one Phase 1 body behind both build_base_clusters overloads.
/// `trajectory_at(i)` yields trajectory i (a reference into a dataset, or a
/// trajectory materialized by a source); `batch_done(begin, end)` runs after
/// each batch. Each batch is walked across the workers into per-index slots
/// that keep only each fragment's segment id, the one field the fold reads
/// besides the trajectory id. The slots are then folded serially in dataset
/// order into one running table of base clusters, so the output does not
/// depend on the thread count.
template <typename TrajectoryAt, typename BatchDone>
Phase1Output build_phase1(const RoadNetwork& net, std::size_t total, unsigned n_threads,
                          const TrajectoryAt& trajectory_at, const BatchDone& batch_done) {
  obs::ScopedSpan span("phase1.build_base_clusters");
  Phase1Output out;
  std::vector<std::int32_t> cluster_of(net.segment_count(), -1);  // segment -> table slot
  std::vector<BaseCluster> clusters;
  std::unordered_set<TrajectoryId> seen_ids;
  seen_ids.reserve(total);

  const std::size_t batch_capacity = std::min(total, Fragmenter::kBatchSize);
  std::vector<TrajectoryId> ids(batch_capacity);
  std::vector<std::vector<SegmentId>> segments(batch_capacity);  // fragment sids per trajectory
  std::vector<std::size_t> gap_repairs(parallel_workers(batch_capacity, n_threads, 1), 0);
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < total; begin += Fragmenter::kBatchSize, ++batches) {
    const std::size_t count = std::min(Fragmenter::kBatchSize, total - begin);
    std::size_t batch_fragments = 0;
    {
      obs::ScopedSpan fragment_span("phase1.fragment");
      parallel_for(count, n_threads, 1, [&](unsigned worker, ChunkCursor& cursor) {
        while (const std::optional<IndexRange> chunk = cursor.next()) {
          for (std::size_t k = chunk->begin; k < chunk->end; ++k) {
            const traj::Trajectory& tr = trajectory_at(begin + k);
            ids[k] = tr.id();
            std::vector<SegmentId>& sids = segments[k];
            walk(net, tr, [&sids](const TFragment& f) { sids.push_back(f.sid); }, nullptr,
                 &gap_repairs[worker]);
          }
        }
      });
      for (std::size_t k = 0; k < count; ++k) batch_fragments += segments[k].size();
      fragment_span.arg("trajectories", static_cast<std::uint64_t>(count));
      fragment_span.arg("fragments", static_cast<std::uint64_t>(batch_fragments));
    }
    {
      obs::ScopedSpan fold_span("phase1.fold");
      fold_span.arg("trajectories", static_cast<std::uint64_t>(count));
      fold_span.arg("fragments", static_cast<std::uint64_t>(batch_fragments));
      for (std::size_t k = 0; k < count; ++k) {
        NEAT_EXPECT(seen_ids.insert(ids[k]).second,
                    str_cat("trajectory id ", ids[k].value(), " repeats (at index ", begin + k,
                            "); trajectory ids must be unique"));
        for (const SegmentId sid : segments[k]) {
          std::int32_t& slot = cluster_of[static_cast<std::size_t>(sid.value())];
          if (slot < 0) {
            slot = static_cast<std::int32_t>(clusters.size());
            clusters.emplace_back(sid);
          }
          clusters[static_cast<std::size_t>(slot)].add(sid, ids[k]);
        }
        segments[k] = {};  // hold no more than the batch being folded
      }
    }
    out.num_fragments += batch_fragments;
    batch_done(begin, begin + count);
  }

  {
    // Each cluster sorts and deduplicates its own participants, so the
    // clusters finalize across the workers; the density order follows.
    obs::ScopedSpan finalize_span("phase1.finalize");
    finalize_span.arg("base_clusters", static_cast<std::uint64_t>(clusters.size()));
    parallel_for(clusters.size(), n_threads, kFinalizeChunk, [&](unsigned, ChunkCursor& cursor) {
      while (const std::optional<IndexRange> chunk = cursor.next()) {
        for (std::size_t i = chunk->begin; i < chunk->end; ++i) clusters[i].finalize();
      }
    });
    sort_by_density(clusters);
  }
  out.base_clusters = std::move(clusters);
  for (const std::size_t g : gap_repairs) out.num_gap_repairs += g;

  record_phase1_counters(total, out);
  span.arg("trajectories", static_cast<std::uint64_t>(total));
  span.arg("fragments", static_cast<std::uint64_t>(out.num_fragments));
  span.arg("gap_repairs", static_cast<std::uint64_t>(out.num_gap_repairs));
  span.arg("batches", static_cast<std::uint64_t>(batches));
  span.arg("threads", static_cast<std::uint64_t>(parallel_workers(batch_capacity, n_threads, 1)));
  return out;
}

}  // namespace

void TrajectorySource::batch_done(std::size_t /*begin*/, std::size_t /*end*/) {}

Fragmenter::Fragmenter(const roadnet::RoadNetwork& net) : net_(net) {}

std::vector<TFragment> Fragmenter::fragment(const traj::Trajectory& tr,
                                            std::size_t* gap_repairs) const {
  std::vector<TFragment> out;
  walk(net_, tr, [&out](const TFragment& f) { out.push_back(f); }, nullptr, gap_repairs);
  return out;
}

traj::Trajectory Fragmenter::augmented(const traj::Trajectory& tr) const {
  traj::Trajectory out(tr.id());
  walk(net_, tr, [](const TFragment&) {}, &out, nullptr);
  return out;
}

Phase1Output Fragmenter::build_base_clusters(const traj::TrajectoryDataset& data,
                                             unsigned n_threads) const {
  return build_phase1(
      net_, data.size(), n_threads,
      [&](std::size_t i) -> const traj::Trajectory& { return data[i]; },
      [](std::size_t, std::size_t) {});
}

Phase1Output Fragmenter::build_base_clusters(TrajectorySource& source, unsigned n_threads) const {
  return build_phase1(
      net_, source.size(), n_threads,
      [&](std::size_t i) { return source.at(i); },
      [&](std::size_t begin, std::size_t end) { source.batch_done(begin, end); });
}

}  // namespace neat
