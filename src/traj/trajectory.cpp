#include "traj/trajectory.h"

#include <utility>

#include "common/error.h"
#include "common/string_util.h"

namespace neat::traj {

namespace {

/// Throws neat::PreconditionError unless `t` may follow `prev` in
/// trajectory `id` (a NaN on either side fails too).
void expect_time_order(TrajectoryId id, double prev, double t) {
  NEAT_EXPECT(t >= prev,
              str_cat("trajectory ", id.value(), ": timestamps must be non-decreasing (",
                      t, " after ", prev, ")"));
}

}  // namespace

Trajectory::Trajectory(TrajectoryId id, std::vector<Location> points)
    : id_(id), points_(std::move(points)) {
  for (std::size_t i = 1; i < points_.size(); ++i) {
    expect_time_order(id_, points_[i - 1].t, points_[i].t);
  }
}

void Trajectory::append(const Location& loc) {
  if (!points_.empty()) expect_time_order(id_, points_.back().t, loc.t);
  points_.push_back(loc);
}

const Location& Trajectory::point(std::size_t i) const {
  NEAT_EXPECT(i < points_.size(), "trajectory point index out of range");
  return points_[i];
}

const Location& Trajectory::front() const {
  NEAT_EXPECT(!points_.empty(), "front() on an empty trajectory");
  return points_.front();
}

const Location& Trajectory::back() const {
  NEAT_EXPECT(!points_.empty(), "back() on an empty trajectory");
  return points_.back();
}

double Trajectory::path_length() const {
  double total = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    total += distance(points_[i - 1].pos, points_[i].pos);
  }
  return total;
}

double Trajectory::duration() const {
  if (points_.size() < 2) return 0.0;
  return points_.back().t - points_.front().t;
}

}  // namespace neat::traj
