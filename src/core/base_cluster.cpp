#include "core/base_cluster.h"

#include <algorithm>

#include "common/error.h"
#include "common/string_util.h"
#include "core/netflow.h"

namespace neat {

void BaseCluster::add(const TFragment& fragment) {
  NEAT_EXPECT(fragment.sid == sid_,
              str_cat("fragment on segment ", fragment.sid.value(),
                      " added to base cluster of segment ", sid_.value()));
  ++density_;
  participants_.push_back(fragment.trid);
  finalized_ = false;
}

void BaseCluster::merge(const BaseCluster& other) {
  NEAT_EXPECT(other.sid_ == sid_,
              str_cat("base cluster of segment ", other.sid_.value(),
                      " merged into base cluster of segment ", sid_.value()));
  NEAT_EXPECT(finalized_ && other.finalized_,
              "BaseCluster::merge() needs both clusters finalized");
  density_ += other.density_;
  participants_ = merge_participants(participants_, other.participants_);
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
