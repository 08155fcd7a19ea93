#include "sim/mobility_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "sim/trip_planner.h"

namespace neat::sim {

namespace {

NodeId nearest_node(const roadnet::RoadNetwork& net, Point target) {
  NodeId best = NodeId::invalid();
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const auto id = NodeId(static_cast<std::int32_t>(i));
    // Only junctions with at least one incident segment make useful trip
    // endpoints.
    if (net.segments_at(id).empty()) continue;
    const double d = distance_sq(net.node(id).pos, target);
    if (d < best_d) {
      best_d = d;
      best = id;
    }
  }
  return best;
}

void validate_config(const roadnet::RoadNetwork& net, const SimConfig& c) {
  NEAT_EXPECT(!c.hotspots.empty(), "SimConfig: at least one hotspot is required");
  NEAT_EXPECT(!c.destinations.empty(), "SimConfig: at least one destination is required");
  NEAT_EXPECT(c.sample_period_s > 0.0, "SimConfig: sample period must be positive");
  NEAT_EXPECT(c.min_speed_factor > 0.0 && c.min_speed_factor <= c.max_speed_factor,
              "SimConfig: speed factors must satisfy 0 < min <= max");
  NEAT_EXPECT(c.hotspot_weights.empty() || c.hotspot_weights.size() == c.hotspots.size(),
              "SimConfig: hotspot_weights must match hotspots in size");
  NEAT_EXPECT(c.start_jitter_s >= 0.0, "SimConfig: start jitter must be non-negative");
  NEAT_EXPECT(c.hotspot_radius_m >= 0.0, "SimConfig: hotspot radius must be non-negative");
  for (const CongestionWindow& w : c.congestion) {
    NEAT_EXPECT(w.begin_s <= w.end_s, "SimConfig: congestion window is inverted");
    NEAT_EXPECT(w.speed_multiplier > 0.0 && w.speed_multiplier <= 1.0,
                "SimConfig: congestion multiplier must be in (0, 1]");
  }
  for (const NodeId h : c.hotspots) static_cast<void>(net.node(h));
  for (const NodeId d : c.destinations) static_cast<void>(net.node(d));
}

}  // namespace

double congestion_factor(const std::vector<CongestionWindow>& profile, double t) {
  for (const CongestionWindow& w : profile) {
    if (t >= w.begin_s && t < w.end_s) return w.speed_multiplier;
  }
  return 1.0;
}

SimConfig default_config(const roadnet::RoadNetwork& net, int n_hotspots,
                         int n_destinations) {
  NEAT_EXPECT(n_hotspots >= 1 && n_destinations >= 1,
              "default_config: need at least one hotspot and one destination");
  const roadnet::Bounds bb = net.bounding_box();
  const auto at_frac = [&](double fx, double fy) {
    return nearest_node(net, {bb.min.x + fx * (bb.max.x - bb.min.x),
                              bb.min.y + fy * (bb.max.y - bb.min.y)});
  };
  // Hotspots in the lower half, destinations along the top and sides — the
  // same "commute across town" structure as the paper's Figure 3.
  const std::vector<std::pair<double, double>> hotspot_fracs = {
      {0.25, 0.2}, {0.75, 0.25}, {0.5, 0.1}, {0.1, 0.35}, {0.9, 0.1}, {0.4, 0.3}};
  const std::vector<std::pair<double, double>> dest_fracs = {
      {0.15, 0.9}, {0.85, 0.85}, {0.5, 0.95}, {0.05, 0.6}, {0.95, 0.55}, {0.65, 0.75}};

  SimConfig cfg;
  for (int i = 0; i < n_hotspots; ++i) {
    const auto [fx, fy] = hotspot_fracs[static_cast<std::size_t>(i) % hotspot_fracs.size()];
    const NodeId n = at_frac(fx, fy);
    if (n.valid() && std::find(cfg.hotspots.begin(), cfg.hotspots.end(), n) ==
                         cfg.hotspots.end()) {
      cfg.hotspots.push_back(n);
    }
  }
  for (int i = 0; i < n_destinations; ++i) {
    const auto [fx, fy] = dest_fracs[static_cast<std::size_t>(i) % dest_fracs.size()];
    const NodeId n = at_frac(fx, fy);
    if (n.valid() && std::find(cfg.destinations.begin(), cfg.destinations.end(), n) ==
                         cfg.destinations.end()) {
      cfg.destinations.push_back(n);
    }
  }
  NEAT_EXPECT(!cfg.hotspots.empty() && !cfg.destinations.empty(),
              "default_config: network has no usable junctions");
  return cfg;
}

MobilitySimulator::MobilitySimulator(const roadnet::RoadNetwork& net, SimConfig config)
    : net_(net), config_(std::move(config)) {
  validate_config(net_, config_);
}

traj::Trajectory simulate_trip(const roadnet::RoadNetwork& net, const SimConfig& config,
                               TrajectoryId id, const roadnet::Route& route, double t0,
                               double speed_factor) {
  NEAT_EXPECT(!route.edges.empty(), "simulate_trip: route must have at least one edge");
  traj::Trajectory tr(id);

  // Walk the route edge by edge; `t` advances with physical motion, and a
  // sample is recorded whenever `t` crosses the next sampling instant.
  double t = t0;
  double next_sample = t0;  // the first sample is the trip origin
  for (const EdgeId eid : route.edges) {
    const roadnet::DirectedEdge& e = net.edge(eid);
    const roadnet::Segment& seg = net.segment(e.sid);
    const double speed = seg.speed_limit * speed_factor;
    const double edge_time = seg.length / speed;
    const Point from = net.node(e.from).pos;
    const Point to = net.node(e.to).pos;
    const double t_end = t + edge_time;
    while (next_sample <= t_end + 1e-12) {
      const double frac = std::clamp((next_sample - t) / edge_time, 0.0, 1.0);
      tr.append(traj::Location{e.sid, lerp(from, to, frac), next_sample, false});
      next_sample += config.sample_period_s;
    }
    t = t_end;
  }
  // Always record the arrival point so the trajectory ends at the
  // destination even when it falls between sampling instants.
  const roadnet::DirectedEdge& last = net.edge(route.edges.back());
  if (tr.empty() || tr.back().t < t - 1e-12) {
    tr.append(traj::Location{last.sid, net.node(last.to).pos, t, false});
  }
  return tr;
}

traj::TrajectoryDataset MobilitySimulator::generate(std::size_t n_objects,
                                                    std::uint64_t seed) const {
  Rng rng(seed);
  TripPlanner planner(net_, config_.metric);
  traj::TrajectoryDataset data;
  constexpr int kMaxDestinationRetries = 8;

  // Junctions within the hotspot radius of each center: the candidate trip
  // origins per region. Centers with no in-radius neighbours fall back to
  // the center itself.
  std::vector<std::vector<NodeId>> region_origins(config_.hotspots.size());
  for (std::size_t h = 0; h < config_.hotspots.size(); ++h) {
    const Point center = net_.node(config_.hotspots[h]).pos;
    if (config_.hotspot_radius_m > 0.0) {
      for (std::size_t i = 0; i < net_.node_count(); ++i) {
        const auto id = NodeId(static_cast<std::int32_t>(i));
        if (net_.segments_at(id).empty()) continue;
        if (distance(net_.node(id).pos, center) <= config_.hotspot_radius_m) {
          region_origins[h].push_back(id);
        }
      }
    }
    if (region_origins[h].empty()) region_origins[h].push_back(config_.hotspots[h]);
  }

  for (std::size_t obj = 0; obj < n_objects; ++obj) {
    const std::size_t h = config_.hotspot_weights.empty()
                              ? rng.index(config_.hotspots.size())
                              : rng.weighted_index(config_.hotspot_weights);
    const NodeId origin = rng.pick(region_origins[h]);

    std::optional<roadnet::Route> route;
    for (int attempt = 0; attempt < kMaxDestinationRetries && !route; ++attempt) {
      const NodeId dest = rng.pick(config_.destinations);
      if (dest == origin) continue;
      route = planner.plan(origin, dest);
    }
    if (!route) continue;  // isolated by one-way restrictions; skip the object

    const double t0 = config_.start_jitter_s > 0.0 ? rng.uniform(0.0, config_.start_jitter_s)
                                                   : 0.0;
    const double factor = rng.uniform(config_.min_speed_factor, config_.max_speed_factor) *
                          congestion_factor(config_.congestion, t0);
    data.add(simulate_trip(net_, config_, TrajectoryId(static_cast<std::int64_t>(obj)),
                           *route, t0, factor));
  }
  return data;
}

std::vector<traj::RawTrace> MobilitySimulator::generate_raw(std::size_t n_objects,
                                                            std::uint64_t seed,
                                                            double noise_stddev_m) const {
  NEAT_EXPECT(noise_stddev_m >= 0.0, "generate_raw: noise stddev must be non-negative");
  const traj::TrajectoryDataset data = generate(n_objects, seed);
  Rng noise(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<traj::RawTrace> traces;
  traces.reserve(data.size());
  for (const traj::Trajectory& tr : data) {
    traj::RawTrace raw;
    raw.id = tr.id();
    raw.points.reserve(tr.size());
    for (const traj::Location& loc : tr.points()) {
      Point p = loc.pos;
      if (noise_stddev_m > 0.0) {
        p.x += noise.gaussian(0.0, noise_stddev_m);
        p.y += noise.gaussian(0.0, noise_stddev_m);
      }
      raw.points.push_back(traj::RawPoint{p, loc.t});
    }
    traces.push_back(std::move(raw));
  }
  return traces;
}

}  // namespace neat::sim
