#include "core/refiner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "core/netflow.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "roadnet/landmark_oracle.h"

namespace neat {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Adds one Phase-3 run's work counters to the global metric registry —
/// one bulk update so the per-pair hot loop never touches shared atomics.
void add_phase3_metrics(const Phase3Output& counters, std::size_t total_pairs,
                        bool landmarks_enabled) {
  obs::Registry& reg = obs::Registry::global();
  reg.set_help("neat_core_pairs_total", "Flow pairs Phase 3 considered, n(n-1)/2 per run.");
  reg.set_help("neat_core_pairs_evaluated_total",
               "Flow pairs whose network distance Phase 3 computed.");
  reg.set_help("neat_core_elb_pruned_pairs_total",
               "Flow pairs Phase 3 eliminated by the Euclidean lower bound.");
  reg.set_help("neat_core_lm_pruned_pairs_total",
               "Flow pairs Phase 3 eliminated by the landmark bound, after ELB.");
  reg.set_help("neat_core_sp_computations_total", "Shortest-path searches Phase 3 issued.");
  reg.set_help("neat_core_sp_settled_nodes_total",
               "Nodes settled across Phase 3 shortest-path searches (a work proxy).");
  reg.set_help("neat_core_lm_bound_checks_total",
               "Flow pairs that reached the landmark-bound test (ELB survivors).");
  reg.set_help("neat_core_lm_bound_hits_total",
               "Flow pairs the landmark-bound test eliminated.");
  reg.counter("neat_core_pairs_total").add(total_pairs);
  reg.counter("neat_core_pairs_evaluated_total").add(counters.pairs_evaluated);
  reg.counter("neat_core_elb_pruned_pairs_total").add(counters.elb_pruned_pairs);
  reg.counter("neat_core_lm_pruned_pairs_total").add(counters.lm_pruned_pairs);
  reg.counter("neat_core_sp_computations_total").add(counters.sp_computations);
  reg.counter("neat_core_sp_settled_nodes_total").add(counters.settled_nodes);
  if (landmarks_enabled) {
    // Landmark-bound hit rate: checks are the pairs that survived ELB and
    // reached the triangle-inequality test, hits the pairs it eliminated.
    reg.counter("neat_core_lm_bound_checks_total")
        .add(total_pairs - counters.elb_pruned_pairs);
    reg.counter("neat_core_lm_bound_hits_total").add(counters.lm_pruned_pairs);
  }
}

/// Sums the work counters of `from` into `into` (clusters untouched).
void add_counters(Phase3Output& into, const Phase3Output& from) {
  into.sp_computations += from.sp_computations;
  into.elb_pruned_pairs += from.elb_pruned_pairs;
  into.lm_pruned_pairs += from.lm_pruned_pairs;
  into.pairs_evaluated += from.pairs_evaluated;
  into.settled_nodes += from.settled_nodes;
}

/// Calls fn(p, i, j) for the condensed-matrix slots p in [begin, end), in
/// order; slot p holds pair (i, j), i < j, at p = i*n - i*(i+1)/2 + (j-i-1).
/// Flow indices are passed as 32 bits, as Refiner::FlowPair stores them.
template <typename Fn>
void for_each_condensed(std::size_t n, std::size_t begin, std::size_t end, const Fn& fn) {
  if (begin >= end) return;
  const auto row_begin = [n](std::size_t r) { return r * n - r * (r + 1) / 2; };
  // The row holding `begin`: the last of rows 0..n-2 starting at or before it.
  std::size_t i = 0;
  std::size_t last = n - 2;
  while (i < last) {
    const std::size_t mid = i + (last - i + 1) / 2;
    if (row_begin(mid) <= begin) {
      i = mid;
    } else {
      last = mid - 1;
    }
  }
  std::size_t j = i + 1 + (begin - row_begin(i));
  for (std::size_t p = begin; p < end; ++p) {
    fn(p, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
    if (++j == n) {
      ++i;
      j = i + 1;
    }
  }
}

}  // namespace

double hausdorff_from_parts(double d11, double d12, double d21, double d22) {
  // Eq. 5: max over each endpoint of one route of its distance to the
  // closest endpoint of the other route, symmetrized.
  const double fwd = std::max(std::min(d11, d12), std::min(d21, d22));
  const double bwd = std::max(std::min(d11, d21), std::min(d12, d22));
  return std::max(fwd, bwd);
}

Refiner::Refiner(const roadnet::RoadNetwork& net, RefineConfig config)
    : net_(net), config_(config) {
  NEAT_EXPECT(config_.epsilon > 0.0, "RefineConfig: epsilon must be positive");
  NEAT_EXPECT(config_.min_pts >= 1, "RefineConfig: min_pts must be at least 1");
  NEAT_EXPECT(!config_.use_landmarks || config_.num_landmarks >= 1,
              "RefineConfig: num_landmarks must be at least 1 when landmarks are enabled");
}

void Refiner::set_landmarks(std::shared_ptr<const roadnet::LandmarkOracle> landmarks) {
  const std::lock_guard<std::mutex> lock(accel_mu_);
  landmarks_ = std::move(landmarks);
}

const roadnet::LandmarkOracle* Refiner::landmark_oracle() const {
  if (!config_.use_landmarks) return nullptr;
  const std::lock_guard<std::mutex> lock(accel_mu_);
  if (!landmarks_) {
    landmarks_ =
        std::make_shared<const roadnet::LandmarkOracle>(net_, config_.num_landmarks);
  }
  return landmarks_.get();
}

void Refiner::set_ch_engine(std::shared_ptr<const roadnet::ChEngine> ch) {
  if (ch) {
    NEAT_EXPECT(&ch->network() == &net_,
                "Refiner: needs a ChEngine over the same network");
  }
  const std::lock_guard<std::mutex> lock(accel_mu_);
  ch_ = std::move(ch);
}

const roadnet::ChEngine* Refiner::ch_engine() const {
  if (config_.distance_engine != DistanceEngine::kCh) return nullptr;
  const std::lock_guard<std::mutex> lock(accel_mu_);
  if (!ch_) {
    // Undirected, metres — the same metric NodeDistanceOracle answers in.
    ch_ = std::make_shared<const roadnet::ChEngine>(net_);
  }
  return ch_.get();
}

Refiner::DistanceContext Refiner::make_context() const {
  DistanceContext ctx{roadnet::NodeDistanceOracle(net_)};
  ctx.landmarks = landmark_oracle();
  if (const roadnet::ChEngine* ch = ch_engine()) ctx.ch.emplace(*ch);
  return ctx;
}

double Refiner::min_euclidean_endpoint_distance(const FlowCluster& a,
                                                const FlowCluster& b) const {
  const Point a1 = net_.node(a.start_junction()).pos;
  const Point a2 = net_.node(a.end_junction()).pos;
  const Point b1 = net_.node(b.start_junction()).pos;
  const Point b2 = net_.node(b.end_junction()).pos;
  return std::min(std::min(distance(a1, b1), distance(a1, b2)),
                  std::min(distance(a2, b1), distance(a2, b2)));
}

double Refiner::landmark_hausdorff_bound(const FlowCluster& a, const FlowCluster& b,
                                         const roadnet::LandmarkOracle& lm) const {
  const NodeId a1 = a.start_junction();
  const NodeId a2 = a.end_junction();
  const NodeId b1 = b.start_junction();
  const NodeId b2 = b.end_junction();
  // hausdorff_from_parts is monotone in each argument, so feeding it
  // per-pair lower bounds yields a lower bound of the true Hausdorff value —
  // strictly sharper than the min-of-four key ELB uses.
  return hausdorff_from_parts(lm.lower_bound(a1, b1), lm.lower_bound(a1, b2),
                              lm.lower_bound(a2, b1), lm.lower_bound(a2, b2));
}

double Refiner::network_hausdorff(const FlowCluster& a, const FlowCluster& b,
                                  DistanceContext& ctx) const {
  const double bound = config_.bound_searches_at_epsilon ? config_.epsilon : kInf;
  const std::array<NodeId, 2> b_ends{b.start_junction(), b.end_junction()};
  std::array<double, 2> row1{};
  std::array<double, 2> row2{};
  // One batched search per endpoint of `a` settles both endpoints of `b`:
  // two searches per pair instead of four. Every engine returns the same
  // distances; only the settled work differs.
  if (ctx.ch) {
    ctx.ch->distances(a.start_junction(), b_ends, row1, bound);
  } else {
    ctx.oracle.distances(a.start_junction(), b_ends, row1, bound, ctx.landmarks);
  }
  if (config_.bound_searches_at_epsilon &&
      std::min(row1[0], row1[1]) > config_.epsilon) {
    // Formula 5's forward term is already > ε, so the pair cannot merge;
    // both legs bounded out, so the exact value is +inf either way. Skip
    // the second search.
    return kInf;
  }
  if (ctx.ch) {
    ctx.ch->distances(a.end_junction(), b_ends, row2, bound);
  } else {
    ctx.oracle.distances(a.end_junction(), b_ends, row2, bound, ctx.landmarks);
  }
  return hausdorff_from_parts(row1[0], row1[1], row2[0], row2[1]);
}

double Refiner::euclidean_route_hausdorff(const FlowCluster& a, const FlowCluster& b) const {
  const auto directed = [&](const std::vector<NodeId>& from, const std::vector<NodeId>& to) {
    double worst = 0.0;
    for (const NodeId u : from) {
      const Point up = net_.node(u).pos;
      double best = kInf;
      for (const NodeId v : to) {
        best = std::min(best, distance(up, net_.node(v).pos));
      }
      worst = std::max(worst, best);
    }
    return worst;
  };
  return std::max(directed(a.junctions, b.junctions), directed(b.junctions, a.junctions));
}

double Refiner::network_route_hausdorff(const FlowCluster& a, const FlowCluster& b,
                                        DistanceContext& ctx) const {
  const double bound = config_.bound_searches_at_epsilon ? config_.epsilon : kInf;
  const auto directed = [&](const std::vector<NodeId>& from, const std::vector<NodeId>& to) {
    double worst = 0.0;
    for (const NodeId u : from) {
      // One multi-target query: min_v d_N(u, v) over the other route's
      // junctions (the oracle settles the first target; CH buckets them).
      worst = std::max(worst, ctx.ch ? ctx.ch->distance_to_any(u, to, bound)
                                     : ctx.oracle.distance_to_any(u, to, bound, ctx.landmarks));
      if (worst > config_.epsilon) break;  // the max can only grow
    }
    return worst;
  };
  return std::max(directed(a.junctions, b.junctions), directed(b.junctions, a.junctions));
}

double Refiner::elb_key(const FlowCluster& a, const FlowCluster& b) const {
  return config_.distance_mode == FlowDistanceMode::kEndpoints
             ? min_euclidean_endpoint_distance(a, b)
             : euclidean_route_hausdorff(a, b);
}

double Refiner::flow_distance(const FlowCluster& a, const FlowCluster& b) const {
  DistanceContext ctx = make_context();
  return config_.distance_mode == FlowDistanceMode::kEndpoints
             ? network_hausdorff(a, b, ctx)
             : network_route_hausdorff(a, b, ctx);
}

bool Refiner::elb_pruned(const FlowCluster& a, const FlowCluster& b) const {
  // ELB: the true network distance can only be larger than the key.
  return config_.use_elb && elb_key(a, b) > config_.epsilon;
}

std::vector<Refiner::FlowPair> Refiner::elb_survivors(
    const std::vector<FlowCluster>& flows) const {
  // A pair whose ELB key is <= ε has a junction of flow j within ε of one of
  // flow i's endpoints (endpoint mode: the closest endpoint pair), or of its
  // start junction (full-route mode: the Hausdorff bound holds for every
  // junction of i). In a uniform grid of cells at least ε wide, that
  // junction lies in the 3×3 cell block around i's, so the exact ELB test
  // runs on the flows found there alone. Cells are ε·(1 + 1e-9) wide,
  // widened to keep at most 2^16 per axis: the margin absorbs rounding, so
  // the computed cell coordinates of two points within ε differ by less
  // than one, and the integer cell key cannot overflow for any ε.
  const bool endpoints = config_.distance_mode == FlowDistanceMode::kEndpoints;
  const auto each_junction = [&](const auto& fn) {  // the junctions the key measures
    for (std::uint32_t f = 0; f < flows.size(); ++f) {
      if (endpoints) {
        fn(flows[f].start_junction(), f);
        fn(flows[f].end_junction(), f);
      } else {
        for (const NodeId v : flows[f].junctions) fn(v, f);
      }
    }
  };
  Point lo{kInf, kInf};
  Point hi{-kInf, -kInf};
  each_junction([&](NodeId v, std::uint32_t) {
    const Point p = net_.node(v).pos;
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  });
  const double cell = std::max(config_.epsilon * (1.0 + 1e-9),
                               std::ldexp(std::max(hi.x - lo.x, hi.y - lo.y), -16));
  const auto cell_of = [&](NodeId v) {
    const Point p = net_.node(v).pos;
    return std::array<std::int64_t, 2>{
        static_cast<std::int64_t>(std::floor((p.x - lo.x) / cell)),
        static_cast<std::int64_t>(std::floor((p.y - lo.y) / cell))};
  };
  const auto key = [](std::int64_t x, std::int64_t y) {
    return (static_cast<std::uint64_t>(x) << 32) | static_cast<std::uint64_t>(y);
  };
  // (cell key, flow), sorted; a route crossing a cell many times is one entry.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> grid;
  each_junction([&](NodeId v, std::uint32_t f) {
    const auto [x, y] = cell_of(v);
    grid.emplace_back(key(x, y), f);
  });
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  std::vector<FlowPair> survivors;
  std::vector<std::uint32_t> near;  // flows j > i in the blocks around flow i
  const auto collect_near = [&](NodeId v, std::uint32_t i) {
    const auto [cx, cy] = cell_of(v);
    for (std::int64_t x = std::max<std::int64_t>(cx - 1, 0); x <= cx + 1; ++x) {
      for (std::int64_t y = std::max<std::int64_t>(cy - 1, 0); y <= cy + 1; ++y) {
        const std::uint64_t k = key(x, y);
        auto it = std::lower_bound(grid.begin(), grid.end(), std::pair{k, std::uint32_t{0}});
        for (; it != grid.end() && it->first == k; ++it) {
          if (it->second > i) near.push_back(it->second);
        }
      }
    }
  };
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    near.clear();
    collect_near(flows[i].start_junction(), i);
    if (endpoints) collect_near(flows[i].end_junction(), i);
    std::sort(near.begin(), near.end());
    near.erase(std::unique(near.begin(), near.end()), near.end());
    for (const std::uint32_t j : near) {
      if (!elb_pruned(flows[i], flows[j])) survivors.push_back({i, j});
    }
  }
  return survivors;
}

void Refiner::evaluate_pairs(const std::vector<FlowCluster>& flows,
                             std::span<const FlowPair> pairs, DistanceContext& ctx,
                             std::span<double> dist, Phase3Output& counters) const {
  const bool endpoints = config_.distance_mode == FlowDistanceMode::kEndpoints;
  const std::size_t before = ctx.computations();
  const std::size_t before_settled = ctx.settled_nodes();
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const FlowCluster& a = flows[pairs[k].i];
    const FlowCluster& b = flows[pairs[k].j];
    if (ctx.landmarks != nullptr && endpoints &&
        landmark_hausdorff_bound(a, b, *ctx.landmarks) > config_.epsilon) {
      // Landmark (ALT) bound: admissible like ELB but follows network
      // geodesics, so it catches pairs whose straight-line distance is small
      // while every road route is long.
      ++counters.lm_pruned_pairs;
      dist[k] = kInf;
      continue;
    }
    ++counters.pairs_evaluated;
    dist[k] = endpoints ? network_hausdorff(a, b, ctx) : network_route_hausdorff(a, b, ctx);
  }
  counters.sp_computations += ctx.computations() - before;
  counters.settled_nodes += ctx.settled_nodes() - before_settled;
}

void Refiner::fill_pair_distances(const std::vector<FlowCluster>& flows, std::size_t begin,
                                  std::size_t end, DistanceContext& ctx,
                                  std::span<double> pair_dist,
                                  Phase3Output& counters) const {
  const std::size_t n = flows.size();
  NEAT_EXPECT(pair_dist.size() == n * (n - 1) / 2 && end <= pair_dist.size(),
              "fill_pair_distances: range must lie in the condensed matrix");
  // The ELB survivors go to evaluate_pairs kPairChunk at a time, in matrix
  // order — the chunks refine() evaluates when the range is the whole matrix.
  std::array<FlowPair, kPairChunk> block{};
  std::array<std::size_t, kPairChunk> slot{};
  std::array<double, kPairChunk> dist{};
  std::size_t k = 0;
  const auto flush = [&] {
    evaluate_pairs(flows, std::span(block).first(k), ctx, std::span(dist).first(k), counters);
    for (std::size_t m = 0; m < k; ++m) pair_dist[slot[m]] = dist[m];
    k = 0;
  };
  for_each_condensed(n, begin, end, [&](std::size_t p, std::uint32_t i, std::uint32_t j) {
    if (elb_pruned(flows[i], flows[j])) {
      ++counters.elb_pruned_pairs;
      pair_dist[p] = kInf;
      return;
    }
    block[k] = {i, j};
    slot[k] = p;
    if (++k == kPairChunk) flush();
  });
  flush();
}

Phase3Output Refiner::cluster_from_pair_distances(
    const std::vector<FlowCluster>& flows, std::span<const double> pair_distances) const {
  const std::size_t n = flows.size();
  NEAT_EXPECT(pair_distances.size() == n * (n - 1) / 2 || n == 0,
              "cluster_from_pair_distances: matrix size must be n*(n-1)/2");
  std::vector<FlowPair> close;
  for_each_condensed(n, 0, pair_distances.size(),
                     [&](std::size_t p, std::uint32_t i, std::uint32_t j) {
                       if (pair_distances[p] <= config_.epsilon) close.push_back({i, j});
                     });
  return cluster_close_pairs(flows, close);
}

Phase3Output Refiner::cluster_close_pairs(const std::vector<FlowCluster>& flows,
                                          std::span<const FlowPair> close) const {
  Phase3Output out;
  const std::size_t n = flows.size();
  if (n == 0) return out;

  // ε-neighbour lists in one CSR: row i holds i itself and every flow within
  // ε of it, ascending, so the merge's visiting order depends only on the
  // pairs, not on which worker found them.
  std::vector<std::size_t> offset(n + 1, 1);
  offset[0] = 0;
  for (const FlowPair& p : close) {
    ++offset[p.i + 1];
    ++offset[p.j + 1];
  }
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<std::uint32_t> neighbours(offset[n]);
  {
    std::vector<std::size_t> next(offset.begin(), offset.end() - 1);
    for (std::size_t i = 0; i < n; ++i) neighbours[next[i]++] = static_cast<std::uint32_t>(i);
    for (const FlowPair& p : close) {
      neighbours[next[p.i]++] = p.j;
      neighbours[next[p.j]++] = p.i;
    }
  }
  const auto region = [&](std::size_t i) {
    return std::span<const std::uint32_t>(neighbours).subspan(offset[i], offset[i + 1] - offset[i]);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<std::uint32_t> row(neighbours.data() + offset[i], offset[i + 1] - offset[i]);
    std::sort(row.begin(), row.end());
  }

  // Deterministic processing order: longest representative route first
  // (paper modification 4), ties on the original flow index.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (flows[x].route_length != flows[y].route_length) {
      return flows[x].route_length > flows[y].route_length;
    }
    return x < y;
  });

  // DBSCAN over flows.
  constexpr std::size_t kUnclassified = std::numeric_limits<std::size_t>::max();
  constexpr std::size_t kNoise = kUnclassified - 1;
  const auto min_pts = static_cast<std::size_t>(config_.min_pts);
  std::vector<std::size_t> label(n, kUnclassified);
  std::vector<std::vector<std::size_t>> groups;

  for (const std::size_t seed : order) {
    if (label[seed] != kUnclassified) continue;
    const std::span<const std::uint32_t> seed_region = region(seed);
    if (seed_region.size() < min_pts) {
      label[seed] = kNoise;
      continue;
    }
    const std::size_t cluster_id = groups.size();
    groups.emplace_back();
    label[seed] = cluster_id;
    groups[cluster_id].push_back(seed);
    std::deque<std::size_t> frontier(seed_region.begin(), seed_region.end());
    while (!frontier.empty()) {
      const std::size_t cur = frontier.front();
      frontier.pop_front();
      if (label[cur] == kNoise) {  // border point
        label[cur] = cluster_id;
        groups[cluster_id].push_back(cur);
        continue;
      }
      if (label[cur] != kUnclassified) continue;
      label[cur] = cluster_id;
      groups[cluster_id].push_back(cur);
      const std::span<const std::uint32_t> sub_region = region(cur);
      if (sub_region.size() >= min_pts) {
        for (const std::size_t nb : sub_region) {
          if (label[nb] == kUnclassified || label[nb] == kNoise) frontier.push_back(nb);
        }
      }
    }
  }

  // NEAT partitions all kept flows: residual noise flows (possible only when
  // min_pts > 1) become singleton clusters, in processing order.
  for (const std::size_t i : order) {
    if (label[i] == kNoise || label[i] == kUnclassified) {
      label[i] = groups.size();
      groups.push_back({i});
    }
  }

  for (std::vector<std::size_t>& members : groups) {
    std::sort(members.begin(), members.end());
    FinalCluster fc;
    fc.flows = std::move(members);
    for (const std::size_t fi : fc.flows) {
      fc.total_route_length += flows[fi].route_length;
      fc.participants = merge_participants(fc.participants, flows[fi].participants);
    }
    out.clusters.push_back(std::move(fc));
  }
  return out;
}

Phase3Output Refiner::refine(const std::vector<FlowCluster>& flows) const {
  const std::size_t n = flows.size();
  if (n == 0) return {};
  NEAT_EXPECT(n <= std::numeric_limits<std::uint32_t>::max(),
              "Refiner::refine: at most 2^32 - 1 flows");
  obs::ScopedSpan span("phase3.refine");
  span.arg("flows", static_cast<std::uint64_t>(n));
  const std::size_t total_pairs = n * (n - 1) / 2;

  // Step 1, candidates: with ELB on, the pairs its test keeps, found by a
  // grid join; every other pair is ELB-pruned without being visited. With
  // ELB off, every pair, walked by condensed index and never stored.
  std::vector<FlowPair> survivors;
  if (config_.use_elb) {
    obs::ScopedSpan candidates_span("phase3.candidates");
    survivors = elb_survivors(flows);
  }
  const std::size_t candidates = config_.use_elb ? survivors.size() : total_pairs;

  // Step 2: workers claim kPairChunk candidates at a time, each with its own
  // context and counters, and keep the pairs within ε.
  const unsigned workers = parallel_workers(candidates, config_.threads);
  std::vector<Phase3Output> worker_counters(workers);
  std::vector<std::vector<FlowPair>> worker_close(workers);
  Phase3Output counters;
  {
    obs::ScopedSpan pairs_span("phase3.pair_distances");
    if (candidates > 0) {
      // Build the shared accelerators before the workers start; workers
      // only read them.
      static_cast<void>(landmark_oracle());
      static_cast<void>(ch_engine());
    }
    const auto worker = [&](unsigned w, ChunkCursor& cursor) {
      if (workers > 1) obs::Tracer::global().set_thread_name(str_cat("refine-worker-", w));
      // One span per worker: the trace shows every worker's lifetime side
      // by side, with its share of the prune/search work as args.
      obs::ScopedSpan worker_span("phase3.worker");
      worker_span.arg("worker", static_cast<std::uint64_t>(w));
      DistanceContext ctx = make_context();
      // Stack-local counters and pair list avoid false sharing between the
      // workers' slots; stored once at worker end.
      Phase3Output local;
      std::vector<FlowPair> close;
      std::array<FlowPair, kPairChunk> walked{};  // the chunk's pairs when ELB is off
      std::array<double, kPairChunk> dist{};
      std::size_t claimed = 0;
      while (const std::optional<IndexRange> chunk = cursor.next()) {
        const std::size_t size = chunk->end - chunk->begin;
        claimed += size;
        std::span<const FlowPair> pairs;
        if (config_.use_elb) {
          pairs = std::span(survivors).subspan(chunk->begin, size);
        } else {
          for_each_condensed(n, chunk->begin, chunk->end,
                             [&](std::size_t p, std::uint32_t i, std::uint32_t j) {
                               walked[p - chunk->begin] = {i, j};
                             });
          pairs = std::span(walked).first(size);
        }
        evaluate_pairs(flows, pairs, ctx, std::span(dist).first(size), local);
        for (std::size_t k = 0; k < size; ++k) {
          if (dist[k] <= config_.epsilon) close.push_back(pairs[k]);
        }
      }
      worker_span.arg("pairs_claimed", static_cast<std::uint64_t>(claimed));
      worker_span.arg("pairs_evaluated", static_cast<std::uint64_t>(local.pairs_evaluated));
      worker_span.arg("lm_pruned", static_cast<std::uint64_t>(local.lm_pruned_pairs));
      worker_span.arg("sp_computations", static_cast<std::uint64_t>(local.sp_computations));
      worker_counters[w] = std::move(local);
      worker_close[w] = std::move(close);
    };
    parallel_for(candidates, config_.threads, kPairChunk, worker);
    // The counters are sums, so the totals do not depend on which worker
    // took which chunk (settled_nodes under kCh aside).
    for (const Phase3Output& c : worker_counters) add_counters(counters, c);
    counters.elb_pruned_pairs = total_pairs - candidates;
    pairs_span.arg("pairs", static_cast<std::uint64_t>(total_pairs));
    pairs_span.arg("candidates", static_cast<std::uint64_t>(candidates));
    pairs_span.arg("threads", static_cast<std::uint64_t>(workers));
    pairs_span.arg("elb_pruned", static_cast<std::uint64_t>(counters.elb_pruned_pairs));
    pairs_span.arg("lm_pruned", static_cast<std::uint64_t>(counters.lm_pruned_pairs));
    pairs_span.arg("sp_computations",
                   static_cast<std::uint64_t>(counters.sp_computations));
  }

  // Step 3: the DBSCAN merge over the ε-neighbour lists.
  obs::ScopedSpan merge_span("phase3.cluster");
  std::vector<FlowPair> close;
  for (const std::vector<FlowPair>& c : worker_close) close.insert(close.end(), c.begin(), c.end());
  Phase3Output out = cluster_close_pairs(flows, close);
  add_counters(out, counters);
  add_phase3_metrics(counters, total_pairs, config_.use_landmarks);
  obs::Registry& reg = obs::Registry::global();
  reg.set_help("neat_core_final_clusters_total", "Final clusters Phase 3 formed.");
  reg.counter("neat_core_final_clusters_total").add(out.clusters.size());
  span.arg("final_clusters", static_cast<std::uint64_t>(out.clusters.size()));
  return out;
}

}  // namespace neat
