// Trajectories of mobile objects travelling in a road network (paper §II).
//
// A road-network location is (sid, x, y, t): the road segment the object is
// on, its planar position, and the sample timestamp. A trajectory is a
// time-ordered sequence of locations; the temporal order encodes the
// direction of movement. Locations inserted later by the system (junction
// points added during t-fragment extraction, or by the map matcher) are
// flagged `junction_point` so they remain distinguishable from raw samples,
// as the paper requires.
#pragma once

#include <type_traits>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"

namespace neat::traj {

/// One recorded (or inserted) road-network location.
///
/// The members are ordered widest first, so the struct packs into 32 bytes
/// with 3 bytes of tail padding. Putting the 4-byte `sid` first would pad it
/// to 8 before `pos` and leave 7 bytes after the flag: 40 bytes. A dataset,
/// the loader's parse buffers and every TFragment hold Locations by the
/// million. The constructor keeps the (sid, pos, t, junction_point)
/// brace-initialisation order.
struct Location {
  Location() = default;
  Location(SegmentId segment, Point position, double timestamp, bool inserted)
      : pos(position), t(timestamp), sid(segment), junction_point(inserted) {}

  Point pos;                   ///< Planar position in metres.
  double t{0.0};               ///< Timestamp in seconds.
  SegmentId sid;               ///< Road segment the object resides on.
  bool junction_point{false};  ///< True for system-inserted junction points.
};
static_assert(sizeof(Location) == 32, "Location must pack into 32 bytes");
static_assert(std::is_trivially_copyable_v<Location>);

/// A time-ordered sequence of locations of one mobile object.
class Trajectory {
 public:
  Trajectory() = default;
  explicit Trajectory(TrajectoryId id) : id_(id) {}
  Trajectory(TrajectoryId id, std::vector<Location> points);

  [[nodiscard]] TrajectoryId id() const { return id_; }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// Appends a location; throws neat::PreconditionError when its timestamp
  /// precedes the current last point (time order is the class invariant).
  void append(const Location& loc);

  /// Pre-allocates capacity for `n` points (loaders and converters).
  void reserve(std::size_t n) { points_.reserve(n); }

  [[nodiscard]] const Location& point(std::size_t i) const;
  [[nodiscard]] const Location& front() const;
  [[nodiscard]] const Location& back() const;
  [[nodiscard]] const std::vector<Location>& points() const { return points_; }

  /// Total Euclidean path length over the sample positions (metres).
  [[nodiscard]] double path_length() const;

  /// Duration between first and last sample (seconds); 0 when < 2 points.
  [[nodiscard]] double duration() const;

 private:
  TrajectoryId id_;
  std::vector<Location> points_;
};

/// A raw positioning sample before map matching: no segment id yet.
struct RawPoint {
  Point pos;
  double t{0.0};
};

/// A raw GPS trace (input to the map matcher).
struct RawTrace {
  TrajectoryId id;
  std::vector<RawPoint> points;
};

}  // namespace neat::traj
