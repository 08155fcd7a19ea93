#include "serve/snapshot.h"

#include <algorithm>
#include <iterator>

#include "common/error.h"
#include "common/string_util.h"

namespace neat::serve {

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::build(
    const roadnet::RoadNetwork& net, std::vector<FlowCluster> flows,
    std::vector<FinalCluster> final_clusters, std::uint64_t version) {
  NEAT_EXPECT(version >= 1, "snapshot versions start at 1");
  const std::size_t seg_count = net.segment_count();
  auto snap = std::shared_ptr<ClusterSnapshot>(new ClusterSnapshot());
  snap->version_ = version;

  // Flow -> final cluster inverse, validating member indices.
  snap->final_of_.assign(flows.size(), -1);
  for (std::size_t c = 0; c < final_clusters.size(); ++c) {
    for (const std::size_t f : final_clusters[c].flows) {
      NEAT_EXPECT(f < flows.size(),
                  str_cat("final cluster ", c, " references flow ", f, " of ",
                          flows.size()));
      snap->final_of_[f] = static_cast<int>(c);
    }
  }

  // CSR segment -> flows index via counting sort (two passes over routes).
  std::vector<std::uint32_t> counts(seg_count + 1, 0);
  for (const FlowCluster& flow : flows) {
    for (const SegmentId sid : flow.route) {
      NEAT_EXPECT(sid.valid() && static_cast<std::size_t>(sid.value()) < seg_count,
                  str_cat("flow route references unknown segment ", sid.value()));
      ++counts[static_cast<std::size_t>(sid.value()) + 1];
    }
  }
  for (std::size_t s = 0; s < seg_count; ++s) counts[s + 1] += counts[s];
  snap->seg_offsets_ = counts;  // counts now holds the final offsets.
  snap->seg_flow_ids_.resize(counts.back());
  // Filling in ascending flow order keeps every per-segment list ascending.
  std::vector<std::uint32_t> cursor(counts.begin(), counts.end() - 1);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (const SegmentId sid : flows[f].route) {
      snap->seg_flow_ids_[cursor[static_cast<std::size_t>(sid.value())]++] =
          static_cast<std::uint32_t>(f);
    }
  }

  // Density ranking: cardinality desc, route_length desc, index asc.
  snap->by_density_.resize(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    snap->by_density_[f] = static_cast<std::uint32_t>(f);
  }
  std::sort(snap->by_density_.begin(), snap->by_density_.end(),
            [&flows](std::uint32_t a, std::uint32_t b) {
              const FlowCluster& fa = flows[a];
              const FlowCluster& fb = flows[b];
              if (fa.cardinality() != fb.cardinality())
                return fa.cardinality() > fb.cardinality();
              if (fa.route_length != fb.route_length)
                return fa.route_length > fb.route_length;
              return a < b;
            });

  snap->flows_ = std::move(flows);
  snap->final_clusters_ = std::move(final_clusters);
  return snap;
}

std::span<const std::uint32_t> ClusterSnapshot::flows_on_segment(SegmentId sid) const {
  if (!sid.valid() || static_cast<std::size_t>(sid.value()) >= segment_count()) {
    return {};
  }
  const std::size_t s = static_cast<std::size_t>(sid.value());
  return std::span<const std::uint32_t>(seg_flow_ids_)
      .subspan(seg_offsets_[s], seg_offsets_[s + 1] - seg_offsets_[s]);
}

int ClusterSnapshot::final_cluster_of(std::uint32_t flow_idx) const {
  if (flow_idx >= final_of_.size()) return -1;
  return final_of_[flow_idx];
}

bool ClusterSnapshot::validate(const roadnet::RoadNetwork& net) const {
  if (version_ == 0) return false;
  if (seg_offsets_.size() != net.segment_count() + 1) return false;
  if (final_of_.size() != flows_.size()) return false;
  if (by_density_.size() != flows_.size()) return false;
  if (seg_offsets_.front() != 0 || seg_offsets_.back() != seg_flow_ids_.size()) {
    return false;
  }
  // CSR: offsets monotonic; every listed flow exists, is listed ascending,
  // and really routes over the segment.
  for (std::size_t s = 0; s < net.segment_count(); ++s) {
    if (seg_offsets_[s] > seg_offsets_[s + 1]) return false;
    std::uint32_t prev = 0;
    bool first = true;
    for (std::uint32_t i = seg_offsets_[s]; i < seg_offsets_[s + 1]; ++i) {
      const std::uint32_t f = seg_flow_ids_[i];
      if (f >= flows_.size()) return false;
      if (!first && f < prev) return false;
      first = false;
      prev = f;
      const auto& route = flows_[f].route;
      const auto sid = SegmentId(static_cast<std::int32_t>(s));
      if (std::find(route.begin(), route.end(), sid) == route.end()) return false;
    }
  }
  // Every route segment of every flow is indexed.
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    if (flows_[f].junctions.size() != flows_[f].route.size() + 1) return false;
    for (const SegmentId sid : flows_[f].route) {
      const auto listed = flows_on_segment(sid);
      if (std::find(listed.begin(), listed.end(), static_cast<std::uint32_t>(f)) ==
          listed.end()) {
        return false;
      }
    }
  }
  // final_of_ agrees with final_clusters_ both ways.
  for (std::size_t c = 0; c < final_clusters_.size(); ++c) {
    for (const std::size_t f : final_clusters_[c].flows) {
      if (f >= flows_.size()) return false;
      if (final_of_[f] != static_cast<int>(c)) return false;
    }
  }
  for (std::size_t f = 0; f < final_of_.size(); ++f) {
    const int c = final_of_[f];
    if (c < 0) continue;
    if (static_cast<std::size_t>(c) >= final_clusters_.size()) return false;
    const auto& members = final_clusters_[static_cast<std::size_t>(c)].flows;
    if (std::find(members.begin(), members.end(), f) == members.end()) return false;
  }
  // Density ranking is a permutation in the documented order.
  std::vector<bool> seen(flows_.size(), false);
  for (std::size_t i = 0; i < by_density_.size(); ++i) {
    const std::uint32_t f = by_density_[i];
    if (f >= flows_.size() || seen[f]) return false;
    seen[f] = true;
    if (i > 0 &&
        flows_[by_density_[i - 1]].cardinality() < flows_[f].cardinality()) {
      return false;
    }
  }
  return true;
}

void SnapshotStore::publish(std::shared_ptr<const ClusterSnapshot> snapshot) {
  NEAT_EXPECT(snapshot != nullptr, "cannot publish a null snapshot");
  const auto now = std::chrono::steady_clock::now();  // outside the reader lock
  // Publications come from one writer in the intended topology, but stay
  // safe under racing writers: the version check and the swap are one
  // critical section, so the version stays strictly increasing.
  std::vector<std::shared_ptr<const ClusterSnapshot>> unpinned;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    NEAT_EXPECT(snapshot_ == nullptr || snapshot->version() > snapshot_->version(),
                str_cat("snapshot version ", snapshot->version(),
                        " does not advance current version ", snapshot_->version()));
    if (snapshot_ != nullptr) retired_.push_back(std::move(snapshot_));
    snapshot_ = std::move(snapshot);
    published_at_ = now;
    // A retired snapshot is out of current()'s reach, so once the store
    // holds its only reference no reader can pin it again: it is freed
    // below, on this thread and outside the lock. The others wait here
    // until their readers let go, so a reader never pays for the free.
    const auto pinned = std::partition(retired_.begin(), retired_.end(),
                                       [](const auto& s) { return s.use_count() > 1; });
    unpinned.assign(std::make_move_iterator(pinned), std::make_move_iterator(retired_.end()));
    retired_.erase(pinned, retired_.end());
  }
}

std::uint64_t SnapshotStore::version() const {
  const auto snap = current();
  return snap ? snap->version() : 0;
}

double SnapshotStore::age_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_ == nullptr) return -1.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - published_at_)
      .count();
}

}  // namespace neat::serve
