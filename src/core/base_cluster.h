// Base clusters (paper Definitions 2–4).
//
// A base cluster groups all t-fragments that lie on one road segment: the
// locally dense unit of NEAT. Its *density* is the number of t-fragments
// (Definition 4); its *trajectory cardinality* is the number of distinct
// participating trajectories (Definition 3). The densest base cluster of a
// set is the dense-core, where Phase 2 starts.
//
// Phases 2–3 read nothing else, so a base cluster keeps only the fragment
// count and the participant list, and Phase 1 hands it only each fragment's
// segment and trajectory ids; the fragments themselves stay available per
// trajectory through Fragmenter::fragment.
#pragma once

#include <vector>

#include "common/ids.h"

namespace neat {

/// The t-fragments associated with one road segment (Definition 2), kept as
/// their count and their distinct trajectories.
class BaseCluster {
 public:
  BaseCluster() = default;
  explicit BaseCluster(SegmentId sid) : sid_(sid) {}

  /// The representative road segment e_S.
  [[nodiscard]] SegmentId sid() const { return sid_; }

  /// Counts a t-fragment of trajectory `trid` on segment `sid`, which must
  /// be this cluster's segment. A participant equal to the last one recorded
  /// is not stored again: Phase 1 adds one trajectory's fragments in a row,
  /// so a trajectory that revisits the segment is stored once.
  void add(SegmentId sid, TrajectoryId trid);

  /// Sorts and deduplicates the participant list. Must be called after the
  /// last add() and before participants()/cardinality()/netflow use.
  void finalize();

  /// Cluster density d(S): the number of t-fragments (Definition 4).
  [[nodiscard]] int density() const { return density_; }

  /// Distinct participating trajectories PTr(S), ascending (Definition 3).
  /// Requires finalize().
  [[nodiscard]] const std::vector<TrajectoryId>& participants() const;

  /// Trajectory cardinality |PTr(S)|. Requires finalize().
  [[nodiscard]] int cardinality() const;

 private:
  SegmentId sid_;
  int density_{0};
  std::vector<TrajectoryId> participants_;
  bool finalized_{false};
};

/// Sorts base clusters into Phase 1 output order, (density desc, sid asc):
/// a total order, so equal inputs sort identically, and index 0 is the
/// dense-core.
void sort_by_density(std::vector<BaseCluster>& clusters);

}  // namespace neat
