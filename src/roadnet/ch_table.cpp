#include "roadnet/ch_table.h"

#include <algorithm>
#include <unordered_map>

#include "common/error.h"

namespace neat::roadnet {

namespace {

/// Do the byte ranges of two spans overlap?
template <typename A, typename B>
bool spans_overlap(std::span<A> a, std::span<B> b) {
  const char* ab = reinterpret_cast<const char*>(a.data());
  const char* ae = ab + a.size_bytes();
  const char* bb = reinterpret_cast<const char*>(b.data());
  const char* be = bb + b.size_bytes();
  return ab < be && bb < ae;
}

/// First-appearance deduplication: `uniq` keeps each distinct node once,
/// `uidx[i]` maps original position i to its unique index.
void dedup(std::span<const NodeId> nodes, std::vector<NodeId>& uniq,
           std::vector<std::int32_t>& uidx) {
  uniq.clear();
  uidx.resize(nodes.size());
  std::unordered_map<std::int32_t, std::int32_t> seen;
  seen.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto [it, inserted] =
        seen.try_emplace(nodes[i].value(), static_cast<std::int32_t>(uniq.size()));
    if (inserted) uniq.push_back(nodes[i]);
    uidx[i] = it->second;
  }
}

}  // namespace

CHTableEngine::CHTableEngine(const ChEngine& engine) : ch_(engine), builder_(engine) {}

void CHTableEngine::reset_counters() {
  computations_ = 0;
  settled_ = 0;
}

void CHTableEngine::table(std::span<const NodeId> sources, std::span<const NodeId> targets,
                          std::span<double> out, double bound) {
  NEAT_EXPECT(out.size() == sources.size() * targets.size(),
              "CHTableEngine: output size must be sources x targets");
  // The refiner hands scratch spans straight through engine dispatch; an
  // aliased output would be clobbered mid-join, so reject it outright.
  NEAT_EXPECT(!spans_overlap(out, sources) && !spans_overlap(out, targets),
              "CHTableEngine: out must not alias sources/targets");
  for (const NodeId s : sources) static_cast<void>(ch_.net_.node(s));
  for (const NodeId t : targets) static_cast<void>(ch_.net_.node(t));
  ++computations_;
  std::fill(out.begin(), out.end(), kInfDistance);
  // Whole-cache eviction happens only between fills: the sweeps below hold
  // references into the cache.
  cache_.maybe_evict();
  if (sources.empty() || targets.empty()) return;

  dedup(sources, uniq_sources_, row_uidx_);
  dedup(targets, uniq_targets_, col_uidx_);
  const auto t_count = static_cast<std::int32_t>(uniq_targets_.size());

  // Backward sweep: build (or fetch) each unique target's upward label and
  // deposit its entries into per-node buckets. Counting pass, then fill —
  // the same CSR construction as the hierarchy's upward graphs.
  bucket_head_.assign(ch_.n_ + 1, 0);
  for (const NodeId t : uniq_targets_) {
    const ChEngine::Label& lbl = cache_.get(t.value(), bound, builder_, settled_);
    for (const ChEngine::LabelEntry& e : lbl.entries) {
      ++bucket_head_[static_cast<std::size_t>(e.node) + 1];
    }
  }
  for (std::size_t v = 0; v < ch_.n_; ++v) bucket_head_[v + 1] += bucket_head_[v];
  buckets_.resize(static_cast<std::size_t>(bucket_head_[ch_.n_]));
  std::vector<std::int32_t> at(bucket_head_.begin(), bucket_head_.end() - 1);
  for (std::int32_t j = 0; j < t_count; ++j) {
    const ChEngine::Label& lbl =
        cache_.get(uniq_targets_[j].value(), bound, builder_, settled_);
    for (const ChEngine::LabelEntry& e : lbl.entries) {
      buckets_[static_cast<std::size_t>(at[e.node]++)] = BucketEntry{j, e.dist};
    }
  }

  // Forward sweep: one upward scan per unique source, joined against the
  // buckets. Iterating the forward entries in ascending node order with a
  // strict `<` reproduces ChEngine::Query's two-pointer merge exactly —
  // same meet hub, same candidate values — because each bucket row holds at
  // most one entry per target.
  const std::size_t t_stride = targets.size();
  for (std::size_t i = 0; i < uniq_sources_.size(); ++i) {
    const ChEngine::Label& fwd =
        cache_.get(uniq_sources_[i].value(), bound, builder_, settled_);
    best_.assign(static_cast<std::size_t>(t_count), kInfDistance);
    meet_.assign(static_cast<std::size_t>(t_count), -1);
    for (const ChEngine::LabelEntry& fe : fwd.entries) {
      const std::size_t node = static_cast<std::size_t>(fe.node);
      for (std::int32_t k = bucket_head_[node]; k < bucket_head_[node + 1]; ++k) {
        const BucketEntry& be = buckets_[static_cast<std::size_t>(k)];
        const double cand = fe.dist + be.dist;
        if (cand < best_[static_cast<std::size_t>(be.target)]) {
          best_[static_cast<std::size_t>(be.target)] = cand;
          meet_[static_cast<std::size_t>(be.target)] = fe.node;
        }
      }
    }
    // Resolve: unpack each winning up-down path and re-sum it sequentially
    // from the source — the exact accumulation Dijkstra performs along it.
    row_scratch_.assign(static_cast<std::size_t>(t_count), kInfDistance);
    for (std::int32_t j = 0; j < t_count; ++j) {
      if (meet_[static_cast<std::size_t>(j)] < 0) continue;
      const ChEngine::Label& bwd = cache_.get(
          uniq_targets_[static_cast<std::size_t>(j)].value(), bound, builder_, settled_);
      leaves_scratch_.clear();
      ch_.unpack_updown(fwd, bwd, meet_[static_cast<std::size_t>(j)], leaves_scratch_);
      double total = 0.0;
      for (const std::int32_t ai : leaves_scratch_) {
        total += ch_.arcs_[static_cast<std::size_t>(ai)].w;
      }
      row_scratch_[static_cast<std::size_t>(j)] = total > bound ? kInfDistance : total;
    }
    // Fan the unique row out to every original row/column position.
    for (std::size_t r = 0; r < sources.size(); ++r) {
      if (row_uidx_[r] != static_cast<std::int32_t>(i)) continue;
      double* row = out.data() + r * t_stride;
      for (std::size_t c = 0; c < t_stride; ++c) {
        row[c] = row_scratch_[static_cast<std::size_t>(col_uidx_[c])];
      }
    }
  }
}

}  // namespace neat::roadnet
