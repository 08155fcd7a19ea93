#include "core/refiner.h"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>

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
    NEAT_EXPECT(!ch->options().directed && &ch->network() == &net_,
                "Refiner: needs an undirected ChEngine over the same network");
  }
  const std::lock_guard<std::mutex> lock(accel_mu_);
  ch_ = std::move(ch);
}

const roadnet::ChEngine* Refiner::ch_engine() const {
  if (config_.distance_engine != DistanceEngine::kCh &&
      config_.distance_engine != DistanceEngine::kChTable) {
    return nullptr;
  }
  const std::lock_guard<std::mutex> lock(accel_mu_);
  if (!ch_) {
    // Undirected, metres — the same metric NodeDistanceOracle answers in.
    ch_ = std::make_shared<const roadnet::ChEngine>(net_);
  }
  return ch_.get();
}

Refiner::DistanceContext Refiner::make_context() const {
  DistanceContext ctx{roadnet::NodeDistanceOracle(net_)};
  if (const roadnet::ChEngine* ch = ch_engine()) {
    ctx.ch.emplace(*ch);
    if (config_.distance_engine == DistanceEngine::kChTable) ctx.table.emplace(*ch);
  }
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
                                  DistanceContext& ctx,
                                  const roadnet::LandmarkOracle* lm) const {
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
    ctx.oracle.distances(a.start_junction(), b_ends, row1, bound, lm);
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
    ctx.oracle.distances(a.end_junction(), b_ends, row2, bound, lm);
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
                                        DistanceContext& ctx,
                                        const roadnet::LandmarkOracle* lm) const {
  const double bound = config_.bound_searches_at_epsilon ? config_.epsilon : kInf;
  const auto directed = [&](const std::vector<NodeId>& from, const std::vector<NodeId>& to) {
    double worst = 0.0;
    for (const NodeId u : from) {
      // One multi-target query: min_v d_N(u, v) over the other route's
      // junctions (the oracle settles the first target; CH buckets them).
      worst = std::max(worst, ctx.ch ? ctx.ch->distance_to_any(u, to, bound)
                                     : ctx.oracle.distance_to_any(u, to, bound, lm));
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
  const roadnet::LandmarkOracle* lm = landmark_oracle();
  return config_.distance_mode == FlowDistanceMode::kEndpoints
             ? network_hausdorff(a, b, ctx, lm)
             : network_route_hausdorff(a, b, ctx, lm);
}

bool Refiner::pair_pruned(const FlowCluster& a, const FlowCluster& b,
                          const roadnet::LandmarkOracle* lm,
                          Phase3Output& counters) const {
  if (config_.use_elb && elb_key(a, b) > config_.epsilon) {
    // ELB: the true network distance can only be larger; prune without any
    // shortest-path computation.
    ++counters.elb_pruned_pairs;
    return true;
  }
  if (lm != nullptr && config_.distance_mode == FlowDistanceMode::kEndpoints &&
      landmark_hausdorff_bound(a, b, *lm) > config_.epsilon) {
    // Landmark (ALT) bound: admissible like ELB but follows network
    // geodesics, so it catches pairs whose straight-line distance is small
    // while every road route is long.
    ++counters.lm_pruned_pairs;
    return true;
  }
  return false;
}

double Refiner::refine_pair_distance(const FlowCluster& a, const FlowCluster& b,
                                     DistanceContext& ctx, Phase3Output& counters) const {
  const roadnet::LandmarkOracle* lm = landmark_oracle();
  if (pair_pruned(a, b, lm, counters)) return kInf;
  const std::size_t before = ctx.computations();
  const std::size_t before_settled = ctx.settled_nodes();
  const double d = config_.distance_mode == FlowDistanceMode::kEndpoints
                       ? network_hausdorff(a, b, ctx, lm)
                       : network_route_hausdorff(a, b, ctx, lm);
  counters.sp_computations += ctx.computations() - before;
  counters.settled_nodes += ctx.settled_nodes() - before_settled;
  ++counters.pairs_evaluated;
  return d;
}

void Refiner::fill_pair_distances(const std::vector<FlowCluster>& flows, std::size_t begin,
                                  std::size_t end, DistanceContext& ctx,
                                  std::span<double> pair_dist,
                                  Phase3Output& counters) const {
  const std::size_t n = flows.size();
  NEAT_EXPECT(pair_dist.size() == n * (n - 1) / 2 && end <= pair_dist.size(),
              "fill_pair_distances: range must lie in the condensed matrix");
  // Recover (i, j) from the condensed index p = i*n - i*(i+1)/2 + (j-i-1) by
  // walking rows; the range is contiguous, so the walk is amortized O(1) per
  // pair.
  const auto row_end = [&](std::size_t i) { return (i + 1) * n - (i + 1) * (i + 2) / 2; };
  std::size_t i = 0;
  while (row_end(i) <= begin) ++i;
  std::size_t j = i + 1 + (begin - (i * n - i * (i + 1) / 2));
  const auto advance = [&] {
    if (++j == n) {
      ++i;
      j = i + 1;
    }
  };

  if (!ctx.table || config_.distance_mode != FlowDistanceMode::kEndpoints) {
    for (std::size_t p = begin; p < end; ++p) {
      pair_dist[p] = refine_pair_distance(flows[i], flows[j], ctx, counters);
      advance();
    }
    return;
  }

  // Batched many-to-many path (kChTable, endpoint mode): apply the
  // admissible prunes per pair, then answer every surviving pair's four
  // endpoint legs from ONE table() fill over the chunk's endpoints (the
  // table engine deduplicates shared junctions internally). Values are
  // bit-identical to the per-pair path: the table resolves each cell by the
  // same unpack-and-re-sum as ChEngine::Query, and under an ε bound a leg
  // that bounds out is kInfDistance on both paths, so the assembled
  // Hausdorff — and every merge decision downstream — cannot differ.
  struct Survivor {
    std::size_t p;
    std::size_t a;
    std::size_t b;
  };
  std::vector<Survivor> survivors;
  survivors.reserve(end - begin);
  const roadnet::LandmarkOracle* lm = landmark_oracle();
  for (std::size_t p = begin; p < end; ++p) {
    if (pair_pruned(flows[i], flows[j], lm, counters)) {
      pair_dist[p] = kInf;
    } else {
      survivors.push_back(Survivor{p, i, j});
    }
    advance();
  }
  if (survivors.empty()) return;

  ctx.table_sources.clear();
  ctx.table_targets.clear();
  for (const Survivor& s : survivors) {
    ctx.table_sources.push_back(flows[s.a].start_junction());
    ctx.table_sources.push_back(flows[s.a].end_junction());
    ctx.table_targets.push_back(flows[s.b].start_junction());
    ctx.table_targets.push_back(flows[s.b].end_junction());
  }
  const double bound = config_.bound_searches_at_epsilon ? config_.epsilon : kInf;
  const std::size_t before = ctx.computations();
  const std::size_t before_settled = ctx.settled_nodes();
  ctx.table_cells.assign(ctx.table_sources.size() * ctx.table_targets.size(), kInf);
  ctx.table->table(ctx.table_sources, ctx.table_targets, ctx.table_cells, bound);
  counters.sp_computations += ctx.computations() - before;
  counters.settled_nodes += ctx.settled_nodes() - before_settled;
  const std::size_t stride = ctx.table_targets.size();
  for (std::size_t k = 0; k < survivors.size(); ++k) {
    const double* row1 = ctx.table_cells.data() + (2 * k) * stride;
    const double* row2 = ctx.table_cells.data() + (2 * k + 1) * stride;
    pair_dist[survivors[k].p] = hausdorff_from_parts(row1[2 * k], row1[2 * k + 1],
                                                     row2[2 * k], row2[2 * k + 1]);
    ++counters.pairs_evaluated;
  }
}

Phase3Output Refiner::cluster_from_pair_distances(
    const std::vector<FlowCluster>& flows, std::span<const double> pair_distances) const {
  Phase3Output out;
  const std::size_t n = flows.size();
  NEAT_EXPECT(pair_distances.size() == n * (n - 1) / 2 || n == 0,
              "cluster_from_pair_distances: matrix size must be n*(n-1)/2");
  if (n == 0) return out;

  const auto pair_distance = [&](std::size_t i, std::size_t j) {
    if (i > j) std::swap(i, j);
    return pair_distances[i * n - i * (i + 1) / 2 + (j - i - 1)];
  };

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

  // ε-neighborhood of flow i (includes i itself), ascending indices.
  const auto region_query = [&](std::size_t i) {
    std::vector<std::size_t> region;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || pair_distance(i, j) <= config_.epsilon) region.push_back(j);
    }
    return region;
  };

  // DBSCAN over flows.
  constexpr std::size_t kUnclassified = std::numeric_limits<std::size_t>::max();
  constexpr std::size_t kNoise = kUnclassified - 1;
  std::vector<std::size_t> label(n, kUnclassified);
  std::vector<std::vector<std::size_t>> groups;

  for (const std::size_t seed : order) {
    if (label[seed] != kUnclassified) continue;
    const std::vector<std::size_t> region = region_query(seed);
    if (region.size() < static_cast<std::size_t>(config_.min_pts)) {
      label[seed] = kNoise;
      continue;
    }
    const std::size_t cluster_id = groups.size();
    groups.emplace_back();
    label[seed] = cluster_id;
    groups[cluster_id].push_back(seed);
    std::deque<std::size_t> frontier(region.begin(), region.end());
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
      const std::vector<std::size_t> sub_region = region_query(cur);
      if (sub_region.size() >= static_cast<std::size_t>(config_.min_pts)) {
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
  obs::ScopedSpan span("phase3.refine");
  span.arg("flows", static_cast<std::uint64_t>(n));

  // The DBSCAN below queries the ε-neighborhood of every flow exactly once,
  // so every unordered pair is needed regardless of how the merge unfolds.
  // Evaluating the full condensed matrix up front lets workers claim
  // disjoint kPairChunk chunks of it with private contexts and counters.
  std::vector<double> pair_dist(n * (n - 1) / 2);
  const unsigned workers = parallel_workers(pair_dist.size(), config_.threads);
  std::vector<Phase3Output> worker_counters(workers);
  Phase3Output counters;
  {
    obs::ScopedSpan pairs_span("phase3.pair_distances");
    if (!pair_dist.empty()) {
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
      // Stack-local counters avoid false sharing between the workers'
      // slots; stored once at worker end.
      Phase3Output local;
      std::size_t claimed = 0;
      while (const std::optional<IndexRange> chunk = cursor.next()) {
        claimed += chunk->end - chunk->begin;
        fill_pair_distances(flows, chunk->begin, chunk->end, ctx, pair_dist, local);
      }
      worker_span.arg("pairs_claimed", static_cast<std::uint64_t>(claimed));
      worker_span.arg("pairs_evaluated", static_cast<std::uint64_t>(local.pairs_evaluated));
      worker_span.arg("elb_pruned", static_cast<std::uint64_t>(local.elb_pruned_pairs));
      worker_span.arg("lm_pruned", static_cast<std::uint64_t>(local.lm_pruned_pairs));
      worker_span.arg("sp_computations", static_cast<std::uint64_t>(local.sp_computations));
      worker_counters[w] = std::move(local);
    };
    parallel_for(pair_dist.size(), config_.threads, kPairChunk, worker);
    // The counters are sums, so the totals do not depend on which worker
    // took which chunk (settled_nodes under the CH engines aside).
    for (const Phase3Output& c : worker_counters) add_counters(counters, c);
    pairs_span.arg("pairs", static_cast<std::uint64_t>(pair_dist.size()));
    pairs_span.arg("threads", static_cast<std::uint64_t>(workers));
    pairs_span.arg("elb_pruned", static_cast<std::uint64_t>(counters.elb_pruned_pairs));
    pairs_span.arg("lm_pruned", static_cast<std::uint64_t>(counters.lm_pruned_pairs));
    pairs_span.arg("sp_computations",
                   static_cast<std::uint64_t>(counters.sp_computations));
  }

  obs::ScopedSpan merge_span("phase3.cluster");
  Phase3Output out = cluster_from_pair_distances(flows, pair_dist);
  add_counters(out, counters);
  add_phase3_metrics(counters, pair_dist.size(), config_.use_landmarks);
  obs::Registry::global()
      .counter("neat_core_final_clusters_total")
      .add(out.clusters.size());
  span.arg("final_clusters", static_cast<std::uint64_t>(out.clusters.size()));
  return out;
}

}  // namespace neat
