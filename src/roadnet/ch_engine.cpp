#include "roadnet/ch_engine.h"

#include <algorithm>
#include <queue>

#include "common/error.h"
#include "common/stopwatch.h"
#include "obs/log/log.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace neat::roadnet {

namespace {

using HeapEntry = std::pair<double, std::int32_t>;  // (cost, node)
using MinHeap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;
// (priority, node): ties contract the smallest node id first, so the
// hierarchy — and therefore every query's unpacked path — is deterministic.
using PrioEntry = std::pair<std::int64_t, std::int32_t>;
using PrioHeap = std::priority_queue<PrioEntry, std::vector<PrioEntry>, std::greater<>>;

/// Settled-node budget of each witness search during preprocessing.
/// Exhausting it inserts a (possibly redundant) shortcut — never wrong, only
/// larger; a larger budget trades build time for query speed.
constexpr int kWitnessSettleLimit = 64;

}  // namespace

ChEngine::ChEngine(const RoadNetwork& net) : net_(net) {
  NEAT_EXPECT(net_.node_count() > 0, "ChEngine: network has no junctions");
  obs::ScopedSpan span("ch.build");
  const Stopwatch watch;
  n_ = net_.node_count();

  add_base_arcs();
  const std::size_t base_arcs = arcs_.size();
  contract_all();
  shortcut_count_ = arcs_.size() - base_arcs;
  build_upward_graphs();

  // Drop the preprocessing-only state; queries touch only the CSR graphs.
  out_adj_.clear();
  out_adj_.shrink_to_fit();
  in_adj_.clear();
  in_adj_.shrink_to_fit();
  contracted_.clear();
  contracted_.shrink_to_fit();
  deleted_neighbors_.clear();
  deleted_neighbors_.shrink_to_fit();
  level_.clear();
  level_.shrink_to_fit();
  twin_.clear();
  twin_.shrink_to_fit();
  wdist_.clear();
  wdist_.shrink_to_fit();
  wstamp_.clear();
  wstamp_.shrink_to_fit();

  preprocessing_seconds_ = watch.elapsed_seconds();
  obs::Registry& reg = obs::Registry::global();
  reg.counter("neat_roadnet_ch_builds_total").add(1);
  reg.counter("neat_roadnet_ch_shortcuts_total").add(shortcut_count_);
  reg.histogram("neat_roadnet_ch_build_duration_seconds").record(preprocessing_seconds_);
  span.arg("junctions", static_cast<std::uint64_t>(n_));
  span.arg("base_arcs", static_cast<std::uint64_t>(base_arcs));
  span.arg("shortcuts", static_cast<std::uint64_t>(shortcut_count_));
  NEAT_LOG(kInfo, "roadnet")
      .msg("CH hierarchy built")
      .kv("junctions", n_)
      .kv("base_arcs", base_arcs)
      .kv("shortcuts", shortcut_count_)
      .kv("duration_ms", preprocessing_seconds_ * 1e3);
}

std::int32_t ChEngine::rank(NodeId n) const {
  static_cast<void>(net_.node(n));
  return rank_[static_cast<std::size_t>(n.value())];
}

void ChEngine::add_base_arcs() {
  out_adj_.assign(n_, {});
  in_adj_.assign(n_, {});
  const auto push = [&](std::int32_t from, std::int32_t to, double w) {
    if (from == to) return;  // self-loops never lie on a shortest path
    const auto idx = static_cast<std::int32_t>(arcs_.size());
    arcs_.push_back(Arc{from, to, w, -1, -1});
    out_adj_[static_cast<std::size_t>(from)].push_back(idx);
    in_adj_[static_cast<std::size_t>(to)].push_back(idx);
  };
  // Mirrors NodeDistanceOracle: every segment is traversable both ways
  // regardless of its one-way flag (§III-C.3), weighted by its length.
  // Arcs land in twin pairs (twin of arc i is i^1), the invariant that
  // keeps the hierarchy arc-symmetric — see contract().
  for (std::size_t s = 0; s < net_.segment_count(); ++s) {
    const Segment& seg = net_.segment(SegmentId(static_cast<std::int32_t>(s)));
    push(seg.a.value(), seg.b.value(), seg.length);
    push(seg.b.value(), seg.a.value(), seg.length);
  }
  twin_.resize(arcs_.size());
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    twin_[i] = static_cast<std::int32_t>(i ^ 1);
  }
}

void ChEngine::witness_search(std::int32_t u, std::int32_t v, double bound) {
  ++wgen_;
  const auto stamp = [&](std::int32_t x) -> bool { return wstamp_[x] == wgen_; };
  wdist_[u] = 0.0;
  wstamp_[u] = wgen_;
  MinHeap heap;
  heap.emplace(0.0, u);
  int settled = 0;
  while (!heap.empty()) {
    const auto [d, x] = heap.top();
    heap.pop();
    if (d > wdist_[x]) continue;  // stale entry
    if (d > bound) break;
    if (++settled > kWitnessSettleLimit) break;
    for (const std::int32_t ai : out_adj_[x]) {
      const Arc& a = arcs_[ai];
      if (a.to == v || contracted_[a.to]) continue;
      const double nd = d + a.w;
      if (nd > bound) continue;
      if (!stamp(a.to) || nd < wdist_[a.to]) {
        wdist_[a.to] = nd;
        wstamp_[a.to] = wgen_;
        heap.emplace(nd, a.to);
      }
    }
  }
}

int ChEngine::contract(std::int32_t v, bool simulate) {
  // Cheapest surviving arc per distinct in/out neighbor; dominated parallels
  // can never force a shortcut.
  in_nb_.clear();
  out_nb_.clear();
  const auto collect = [&](const std::vector<std::int32_t>& adj, bool incoming,
                           std::vector<Neighbor>& nbs) {
    for (const std::int32_t ai : adj) {
      const Arc& a = arcs_[ai];
      const std::int32_t other = incoming ? a.from : a.to;
      if (other == v || contracted_[other]) continue;
      auto it = std::find_if(nbs.begin(), nbs.end(),
                             [&](const Neighbor& nb) { return nb.node == other; });
      if (it == nbs.end()) {
        nbs.push_back(Neighbor{other, ai, a.w});
      } else if (a.w < it->w) {
        it->arc = ai;
        it->w = a.w;
      }
    }
  };
  collect(in_adj_[v], /*incoming=*/true, in_nb_);
  collect(out_adj_[v], /*incoming=*/false, out_nb_);
  if (in_nb_.empty() || out_nb_.empty()) return 0;

  int shortcuts = 0;
  const auto insert_arc = [&](std::int32_t from, std::int32_t to, double w,
                              std::int32_t left, std::int32_t right) {
    const auto idx = static_cast<std::int32_t>(arcs_.size());
    arcs_.push_back(Arc{from, to, w, left, right});
    out_adj_[static_cast<std::size_t>(from)].push_back(idx);
    in_adj_[static_cast<std::size_t>(to)].push_back(idx);
    return idx;
  };
  for (const Neighbor& in : in_nb_) {
    double max_need = 0.0;
    bool any_target = false;
    for (const Neighbor& out : out_nb_) {
      // The hierarchy stays arc-symmetric: each unordered neighbor pair is
      // decided by ONE witness run (from the smaller node id) and, when
      // that fails, gets BOTH shortcut directions inserted as twins.
      // Deciding each direction independently could leave a one-sided
      // shortcut (witness runs are settle-limited), and the shared-label
      // query path relies on the reverse of every down-path existing as an
      // up-path.
      if (out.node <= in.node) continue;
      max_need = std::max(max_need, in.w + out.w);
      any_target = true;
    }
    if (!any_target) continue;
    // One witness run from `in` covers every out-neighbor: does a path
    // avoiding v already match the would-be shortcut?
    witness_search(in.node, v, max_need);
    for (const Neighbor& out : out_nb_) {
      if (out.node <= in.node) continue;
      const double sc = in.w + out.w;
      if (wstamp_[out.node] == wgen_ && wdist_[out.node] <= sc) continue;
      shortcuts += 2;
      if (!simulate) {
        const std::int32_t fwd_idx =
            insert_arc(in.node, out.node, sc, in.arc, out.arc);
        // The reverse shortcut unpacks through the twins of the forward
        // one's children, in swapped order (reverse of u->v->w is
        // w->v->u). Its weight out.w + in.w is bitwise equal to sc.
        const std::int32_t rev_idx = insert_arc(
            out.node, in.node, sc, twin_[static_cast<std::size_t>(out.arc)],
            twin_[static_cast<std::size_t>(in.arc)]);
        twin_.push_back(rev_idx);  // twin of fwd_idx
        twin_.push_back(fwd_idx);  // twin of rev_idx
      }
    }
  }
  return shortcuts;
}

std::int64_t ChEngine::priority(std::int32_t v) {
  // Lazy edge difference: shortcuts the contraction would insert minus arcs
  // it removes, plus a deleted-neighbors and a hierarchy-level term. The
  // level term is load-bearing on lattice-like networks: without it,
  // contracting a node only *lowers* its neighbors' priorities (fewer
  // incident arcs, equal-length witnesses everywhere), so contraction peels
  // the network inward from the boundary and queries degenerate into full
  // bidirectional sweeps. Penalising nodes above already-contracted ones
  // forces independent-set-like rounds and a balanced hierarchy instead.
  std::int64_t incident = 0;
  for (const std::int32_t ai : in_adj_[v]) {
    if (!contracted_[arcs_[ai].from]) ++incident;
  }
  for (const std::int32_t ai : out_adj_[v]) {
    if (!contracted_[arcs_[ai].to]) ++incident;
  }
  return 4 * static_cast<std::int64_t>(contract(v, /*simulate=*/true)) - incident +
         deleted_neighbors_[v] + 2 * static_cast<std::int64_t>(level_[v]);
}

void ChEngine::contract_all() {
  contracted_.assign(n_, 0);
  deleted_neighbors_.assign(n_, 0);
  level_.assign(n_, 0);
  rank_.assign(n_, -1);
  wdist_.assign(n_, 0.0);
  wstamp_.assign(n_, 0);

  PrioHeap heap;
  for (std::size_t v = 0; v < n_; ++v) {
    heap.emplace(priority(static_cast<std::int32_t>(v)), static_cast<std::int32_t>(v));
  }

  std::int32_t order = 0;
  while (!heap.empty()) {
    const auto [p, v] = heap.top();
    heap.pop();
    if (contracted_[v]) continue;
    // Lazy update: the stored priority may predate neighbor contractions.
    // Recompute; if the node no longer wins, push it back and try the next.
    const std::int64_t now = priority(v);
    if (now > p && !heap.empty() && now > heap.top().first) {
      heap.emplace(now, v);
      continue;
    }
    contract(v, /*simulate=*/false);
    contracted_[v] = 1;
    rank_[v] = order++;
    for (const std::int32_t ai : in_adj_[v]) {
      const std::int32_t u = arcs_[ai].from;
      if (contracted_[u]) continue;
      ++deleted_neighbors_[u];
      level_[u] = std::max(level_[u], level_[v] + 1);
    }
    for (const std::int32_t ai : out_adj_[v]) {
      const std::int32_t u = arcs_[ai].to;
      if (contracted_[u]) continue;
      ++deleted_neighbors_[u];
      level_[u] = std::max(level_[u], level_[v] + 1);
    }
  }
}

void ChEngine::build_upward_graphs() {
  // Counting pass, then fill: every arc has exactly one lower-ranked
  // endpoint and lands in exactly one CSR — up_fwd_ at its tail when the
  // head ranks higher, up_rev_ at its head otherwise.
  std::vector<std::int32_t> fwd_count(n_, 0);
  std::vector<std::int32_t> rev_count(n_, 0);
  for (const Arc& a : arcs_) {
    if (rank_[a.from] < rank_[a.to]) {
      ++fwd_count[a.from];
    } else {
      ++rev_count[a.to];
    }
  }
  up_fwd_head_.assign(n_ + 1, 0);
  up_rev_head_.assign(n_ + 1, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    up_fwd_head_[v + 1] = up_fwd_head_[v] + fwd_count[v];
    up_rev_head_[v + 1] = up_rev_head_[v] + rev_count[v];
  }
  up_fwd_.resize(arcs_.empty() ? 0 : static_cast<std::size_t>(up_fwd_head_[n_]));
  up_rev_.resize(arcs_.empty() ? 0 : static_cast<std::size_t>(up_rev_head_[n_]));
  std::vector<std::int32_t> fwd_at(up_fwd_head_.begin(), up_fwd_head_.end() - 1);
  std::vector<std::int32_t> rev_at(up_rev_head_.begin(), up_rev_head_.end() - 1);
  for (std::size_t ai = 0; ai < arcs_.size(); ++ai) {
    const Arc& a = arcs_[ai];
    if (rank_[a.from] < rank_[a.to]) {
      up_fwd_[static_cast<std::size_t>(fwd_at[a.from]++)] =
          UpArc{a.to, a.w, static_cast<std::int32_t>(ai)};
    } else {
      up_rev_[static_cast<std::size_t>(rev_at[a.to]++)] =
          UpArc{a.from, a.w, static_cast<std::int32_t>(ai)};
    }
  }
}

// ---------------------------------------------------------------------------
// LabelBuilder / LabelCache
// ---------------------------------------------------------------------------

ChEngine::LabelBuilder::LabelBuilder(const ChEngine& engine)
    : ch_(engine), dist_(engine.n_, 0.0), stamp_(engine.n_, 0), parent_(engine.n_, -1) {}

std::size_t ChEngine::LabelBuilder::build(std::int32_t src, double bound,
                                          Label& out_label) {
  // Upward Dijkstra from `src`, pruned at `bound`: every node whose upward
  // distance is within the bound is settled exactly, so any meet hub of a
  // shortest path <= bound survives in the label (both halves of an up-down
  // path are themselves <= the total). Paths beyond the bound answer
  // kInfDistance by contract, where a truncated label is indistinguishable
  // from a full one. The search relaxes up_fwd_ and stalls via up_rev_.
  const std::span<const std::int32_t> relax_head(ch_.up_fwd_head_);
  const std::span<const UpArc> relax(ch_.up_fwd_);
  const std::span<const std::int32_t> stall_head(ch_.up_rev_head_);
  const std::span<const UpArc> stall(ch_.up_rev_);

  out_label.bound = bound;
  std::vector<LabelEntry>& out = out_label.entries;
  std::size_t settled = 0;
  ++gen_;
  dist_[static_cast<std::size_t>(src)] = 0.0;
  stamp_[static_cast<std::size_t>(src)] = gen_;
  parent_[static_cast<std::size_t>(src)] = -1;
  MinHeap heap;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (stamp_[u] != gen_ || d > dist_[u]) continue;  // stale entry
    ++settled;
    out.push_back(LabelEntry{u, d, parent_[u]});
    // Stall-on-demand: a higher-ranked node on the opposite side already
    // reaches u more cheaply, so no shortest up-down path climbs through u
    // from here. The stalled node stays in the label (its distance is a
    // valid path length and the meet candidate set then matches a plain
    // bidirectional sweep), it just stops expanding.
    bool stalled = false;
    for (std::int32_t i = stall_head[u]; i < stall_head[u + 1]; ++i) {
      const UpArc& a = stall[static_cast<std::size_t>(i)];
      if (stamp_[a.other] == gen_ && dist_[a.other] + a.w < d) {
        stalled = true;
        break;
      }
    }
    if (stalled) continue;
    for (std::int32_t i = relax_head[u]; i < relax_head[u + 1]; ++i) {
      const UpArc& a = relax[static_cast<std::size_t>(i)];
      const double nd = d + a.w;
      if (nd > bound || (stamp_[a.other] == gen_ && nd >= dist_[a.other])) continue;
      // Push-time stall: if some settled-or-queued node on the opposite side
      // already reaches the head more cheaply (its tentative distance is an
      // upper bound, so the test is conservative), the head is strictly
      // dominated — it can never be the apex of a shortest up-down path and
      // need not be settled at all.
      bool dominated = false;
      for (std::int32_t j = stall_head[a.other]; j < stall_head[a.other + 1]; ++j) {
        const UpArc& b = stall[static_cast<std::size_t>(j)];
        if (stamp_[b.other] == gen_ && dist_[b.other] + b.w < nd) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      dist_[a.other] = nd;
      stamp_[a.other] = gen_;
      parent_[a.other] = a.arc;
      heap.emplace(nd, a.other);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const LabelEntry& a, const LabelEntry& b) { return a.node < b.node; });
  return settled;
}

const ChEngine::Label& ChEngine::LabelCache::get(std::int32_t src, double bound,
                                                 LabelBuilder& builder,
                                                 std::size_t& settled) {
  // One label serves both sides of a query — the backward label of a node
  // carries the same (node, dist) set as its forward label, halving the
  // settled work of workloads that touch a node from both sides.
  // unpack_updown() compensates for the flipped parents.
  const auto [it, inserted] = labels_.try_emplace(src);
  if (!inserted && it->second.bound >= bound) return it->second;
  if (!inserted) {
    // A later query wants a larger bound: rebuild from scratch. Workloads
    // use one fixed bound (the refiner's ε, the planner's +inf), so this is
    // the cold path.
    cached_entries_ -= it->second.entries.size();
    it->second.entries.clear();
  }
  settled += builder.build(src, bound, it->second);
  cached_entries_ += it->second.entries.size();
  return it->second;
}

void ChEngine::LabelCache::maybe_evict() {
  constexpr std::size_t kMaxCachedEntries = std::size_t{1} << 22;
  if (cached_entries_ > kMaxCachedEntries) {
    labels_.clear();
    cached_entries_ = 0;
  }
}

void ChEngine::unpack_updown(const Label& fwd, const Label& bwd, std::int32_t meet,
                             std::vector<std::int32_t>& leaves) const {
  // Unpack a hierarchy arc into the base arcs it replaces, preserving
  // path order (left child first).
  const auto unpack = [&](auto&& self, std::int32_t ai) -> void {
    const Arc& a = arcs_[static_cast<std::size_t>(ai)];
    if (a.left < 0) {
      leaves.push_back(ai);
      return;
    }
    self(self, a.left);
    self(self, a.right);
  };
  const auto parent_of = [](const Label& lbl, std::int32_t node) -> std::int32_t {
    const auto it = std::lower_bound(
        lbl.entries.begin(), lbl.entries.end(), node,
        [](const LabelEntry& e, std::int32_t n) { return e.node < n; });
    NEAT_EXPECT(it != lbl.entries.end() && it->node == node,
                "ChEngine: broken label parent chain");
    return it->parent;
  };
  // Forward half: walk parent arcs from the apex back to s, then reverse so
  // unpacking emits arcs in s -> apex order.
  std::vector<std::int32_t> fwd_chain;
  for (std::int32_t u = meet;;) {
    const std::int32_t ai = parent_of(fwd, u);
    if (ai < 0) break;
    fwd_chain.push_back(ai);
    u = arcs_[static_cast<std::size_t>(ai)].from;
  }
  for (auto it = fwd_chain.rbegin(); it != fwd_chain.rend(); ++it) unpack(unpack, *it);
  // Backward half: both sides share one label cache, so `bwd` is an upward
  // label from t and its parent arcs point toward the apex. Unpack each hop
  // and reverse its leaves in place: the result lists the apex -> t hops in
  // path order, every leaf being the weight-equal twin of the true arc, so
  // the re-summation downstream is bitwise identical.
  for (std::int32_t u = meet;;) {
    const std::int32_t ai = parent_of(bwd, u);
    if (ai < 0) break;
    const auto pre = static_cast<std::ptrdiff_t>(leaves.size());
    unpack(unpack, ai);
    std::reverse(leaves.begin() + pre, leaves.end());
    u = arcs_[static_cast<std::size_t>(ai)].from;
  }
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

ChEngine::Query::Query(const ChEngine& engine) : ch_(engine), builder_(engine) {}

void ChEngine::Query::reset_counters() {
  computations_ = 0;
  settled_ = 0;
}

const ChEngine::Label& ChEngine::Query::label(std::int32_t src, double bound) {
  return cache_.get(src, bound, builder_, settled_);
}

void ChEngine::Query::distances(NodeId s, std::span<const NodeId> targets,
                                std::span<double> out, double bound) {
  NEAT_EXPECT(out.size() == targets.size(),
              "ChEngine: output size must match target count");
  static_cast<void>(ch_.net_.node(s));
  ++computations_;
  std::fill(out.begin(), out.end(), kInfDistance);
  // Whole-cache eviction happens only between batches: merges below hold
  // references into the cache.
  cache_.maybe_evict();
  if (targets.empty()) return;

  const Label& fwd = label(s.value(), bound);
  for (std::size_t k = 0; k < targets.size(); ++k) {
    static_cast<void>(ch_.net_.node(targets[k]));
    const Label& bwd = label(targets[k].value(), bound);
    // Sorted two-pointer merge: the cheapest meet over common label nodes
    // is the apex of a shortest up-down path (or no meet: unreachable /
    // beyond the bound).
    double best = kInfDistance;
    std::int32_t meet = -1;
    auto bi = bwd.entries.begin();
    for (const LabelEntry& fe : fwd.entries) {
      while (bi != bwd.entries.end() && bi->node < fe.node) ++bi;
      if (bi == bwd.entries.end()) break;
      if (bi->node != fe.node) continue;
      const double cand = fe.dist + bi->dist;
      if (cand < best) {
        best = cand;
        meet = fe.node;
      }
    }
    if (meet < 0) continue;
    // Resolve: unpack the winning up-down path and re-sum it sequentially
    // from s — the exact accumulation Dijkstra performs along that path.
    leaves_scratch_.clear();
    ch_.unpack_updown(fwd, bwd, meet, leaves_scratch_);
    double total = 0.0;
    for (const std::int32_t ai : leaves_scratch_) {
      total += ch_.arcs_[static_cast<std::size_t>(ai)].w;
    }
    out[k] = total > bound ? kInfDistance : total;
  }
}

double ChEngine::Query::distance(NodeId s, NodeId t, double bound) {
  double out = kInfDistance;
  distances(s, std::span<const NodeId>(&t, 1), std::span<double>(&out, 1), bound);
  return out;
}

double ChEngine::Query::distance_to_any(NodeId s, std::span<const NodeId> targets,
                                        double bound) {
  if (targets.empty()) return kInfDistance;
  any_scratch_.assign(targets.size(), kInfDistance);
  distances(s, targets, any_scratch_, bound);
  double best = kInfDistance;
  for (const double d : any_scratch_) best = std::min(best, d);
  return best;
}

}  // namespace neat::roadnet
