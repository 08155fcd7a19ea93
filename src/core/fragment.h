// t-fragments — the atomic clustering unit of NEAT (paper Definition 1).
//
// A t-fragment is a maximal sub-trajectory whose points all lie on one road
// segment. A TFragment compresses it to its entry and exit locations (the
// paper keeps "only the first and the last point in the original trajectory
// … together with the newly inserted road junction points"), preserving
// travel route, movement direction, and the originating trajectory id.
//
// TFragment is what Fragmenter::fragment() returns per trajectory, for
// inspection, tests and benches. The Phase 1 fold into base clusters reads
// only each fragment's `sid` and `trid`, so build_base_clusters never holds
// TFragments: its batches keep segment ids.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "traj/trajectory.h"

namespace neat {

/// A t-fragment of a trajectory (Definition 1).
struct TFragment {
  TrajectoryId trid;        ///< Originating trajectory.
  SegmentId sid;            ///< Road segment the fragment lies on.
  traj::Location entry;     ///< First location on the segment (time order).
  traj::Location exit;      ///< Last location on the segment (time order).
  std::uint32_t num_samples{0};  ///< Raw samples covered (0: inferred gap fragment).

  /// Euclidean length between entry and exit (straight segments make this the
  /// on-segment travel distance).
  [[nodiscard]] double length() const { return distance(entry.pos, exit.pos); }
};

}  // namespace neat
