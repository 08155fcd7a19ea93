#include "core/base_cluster.h"

#include <algorithm>

#include "common/error.h"
#include "common/string_util.h"

namespace neat {

void BaseCluster::add(SegmentId sid, TrajectoryId trid) {
  NEAT_EXPECT(sid == sid_, str_cat("fragment on segment ", sid.value(),
                                   " added to base cluster of segment ", sid_.value()));
  ++density_;
  if (participants_.empty() || participants_.back() != trid) participants_.push_back(trid);
  finalized_ = false;
}

void BaseCluster::finalize() {
  std::sort(participants_.begin(), participants_.end());
  participants_.erase(std::unique(participants_.begin(), participants_.end()),
                      participants_.end());
  finalized_ = true;
}

const std::vector<TrajectoryId>& BaseCluster::participants() const {
  NEAT_EXPECT(finalized_, "BaseCluster::finalize() must be called before participants()");
  return participants_;
}

int BaseCluster::cardinality() const {
  return static_cast<int>(participants().size());
}

void sort_by_density(std::vector<BaseCluster>& clusters) {
  std::sort(clusters.begin(), clusters.end(), [](const BaseCluster& a, const BaseCluster& b) {
    if (a.density() != b.density()) return a.density() > b.density();
    return a.sid() < b.sid();
  });
}

}  // namespace neat
