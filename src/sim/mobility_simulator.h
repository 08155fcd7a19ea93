// Event-based mobility trace generator (GTMobiSIM substitute, paper §IV-A).
//
// Mirrors the paper's generation process: mobile objects are placed at a
// small set of hotspot junctions, each picks a destination at random from a
// predefined destination set, travels the shortest route under per-segment
// speed limits, and records its road-network location every sample period.
// The hotspot/destination structure is what concentrates traffic into the
// major flows NEAT discovers (paper Figure 3).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "traj/dataset.h"

namespace neat::sim {

/// One window of a congestion profile: departures in [begin_s, end_s) are
/// slowed to `speed_multiplier` of free flow.
struct CongestionWindow {
  double begin_s{0.0};
  double end_s{0.0};
  double speed_multiplier{1.0};
};

/// The congestion multiplier in effect at departure time `t` (1.0 outside
/// every window; the first matching window wins).
[[nodiscard]] double congestion_factor(const std::vector<CongestionWindow>& profile,
                                       double t);

/// Simulation parameters.
struct SimConfig {
  /// Hotspot centers. Trips originate from junctions within
  /// `hotspot_radius_m` of a chosen center — the paper's "dense regions
  /// that concentrate the short flows" (Figure 3 discussion). Empty:
  /// `default_config` picks spread-out junctions.
  std::vector<NodeId> hotspots;
  /// Relative hotspot popularity; empty means uniform.
  std::vector<double> hotspot_weights;
  /// Origin spread around each hotspot center (0: exact center only).
  double hotspot_radius_m{600.0};
  /// Predefined destination set (the paper's "X" marks). Must be non-empty
  /// at generate() time.
  std::vector<NodeId> destinations;
  double sample_period_s{4.0};    ///< Location recording period.
  double min_speed_factor{0.8};   ///< Objects drive in [min, max] × speed limit.
  double max_speed_factor{1.0};
  double start_jitter_s{600.0};   ///< Trip start times spread over [0, jitter].
  roadnet::Metric metric{roadnet::Metric::kTravelTime};  ///< Routing metric.
  /// Optional time-of-day congestion profile: piecewise-constant speed
  /// multipliers. Empty: free flow. An object departing at t drives at
  /// speed_limit × speed_factor × congestion_factor(t) for its whole trip
  /// (departure-time congestion — the rush-hour effect without modelling
  /// vehicle interaction). Factors must be in (0, 1].
  std::vector<CongestionWindow> congestion;
};

/// Picks `n_hotspots` origins and `n_destinations` destinations spread over
/// the network (deterministic for a given network) and returns a config with
/// the remaining fields at their defaults.
[[nodiscard]] SimConfig default_config(const roadnet::RoadNetwork& net,
                                       int n_hotspots = 2, int n_destinations = 3);

/// Generates trajectory datasets over one road network.
class MobilitySimulator {
 public:
  /// Keeps a reference to the network; do not outlive it.
  /// Throws neat::PreconditionError on malformed configs.
  MobilitySimulator(const roadnet::RoadNetwork& net, SimConfig config);

  /// Simulates `n_objects` trips and returns their trajectories. Objects
  /// whose sampled destination is unreachable retry a few times and are
  /// skipped if still unlucky (rare: generated networks are connected
  /// ignoring one-way restrictions). Deterministic in (network, config,
  /// seed).
  [[nodiscard]] traj::TrajectoryDataset generate(std::size_t n_objects,
                                                 std::uint64_t seed) const;

  /// Like generate(), but returns raw GPS traces: positions carry Gaussian
  /// noise of the given standard deviation and no segment ids — input for
  /// the map matcher.
  [[nodiscard]] std::vector<traj::RawTrace> generate_raw(std::size_t n_objects,
                                                         std::uint64_t seed,
                                                         double noise_stddev_m) const;

  [[nodiscard]] const SimConfig& config() const { return config_; }

 private:
  const roadnet::RoadNetwork& net_;
  SimConfig config_;
};

/// Simulates a single trip along `route` starting at `t0`, sampling every
/// `config.sample_period_s`. Exposed for tests.
[[nodiscard]] traj::Trajectory simulate_trip(const roadnet::RoadNetwork& net,
                                             const SimConfig& config, TrajectoryId id,
                                             const roadnet::Route& route, double t0,
                                             double speed_factor);

}  // namespace neat::sim
