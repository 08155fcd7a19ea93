// Internal entry to the trajectory CSV loader, with the window size and
// worker count that traj::for_each_trajectory chooses itself made explicit.
// Tests use it to put window and range cuts between any two lines; it is
// not part of the public API.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>

#include "traj/trajectory.h"

namespace neat::traj::detail {

/// traj::for_each_trajectory, reading `window_bytes` at a time (more while
/// a longer line has no newline yet) and parsing each window in
/// 2 x `workers` newline-aligned ranges. Zero values are treated as 1. The
/// output and the errors are the same for every window size and worker
/// count.
void for_each_trajectory(std::istream& in, const std::function<void(Trajectory&&)>& fn,
                         std::size_t window_bytes, unsigned workers);

}  // namespace neat::traj::detail
