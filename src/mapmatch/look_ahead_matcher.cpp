#include "mapmatch/look_ahead_matcher.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace neat::mapmatch {

namespace {

struct Candidate {
  SegmentId sid;
  Point projected;
  double emission;  ///< Perpendicular distance to the segment.
};

}  // namespace

LookAheadMatcher::LookAheadMatcher(const roadnet::RoadNetwork& net,
                                   const roadnet::SegmentGridIndex& index,
                                   MatchConfig config)
    : net_(net), index_(index), config_(config) {
  NEAT_EXPECT(config_.candidate_radius_m > 0.0, "MatchConfig: radius must be positive");
  NEAT_EXPECT(config_.max_candidates >= 1, "MatchConfig: need at least one candidate");
  NEAT_EXPECT(config_.adjacent_transition_cost >= 0.0 &&
                  config_.disconnected_transition_cost >= 0.0,
              "MatchConfig: transition costs must be non-negative");
}

traj::Trajectory LookAheadMatcher::match(const traj::RawTrace& trace,
                                         MatchStats* stats) const {
  obs::ScopedSpan span("mapmatch.match");
  MatchStats local;  // registry counts are per call, independent of `stats`
  traj::Trajectory out(trace.id);

  // 1. Candidate generation; points without candidates are dropped.
  std::vector<std::vector<Candidate>> candidates;
  std::vector<double> times;
  candidates.reserve(trace.points.size());
  for (const traj::RawPoint& rp : trace.points) {
    const std::vector<SegmentId> near =
        index_.k_nearest_segments(rp.pos, config_.max_candidates, config_.candidate_radius_m);
    if (near.empty()) {
      ++local.dropped_points;
      continue;
    }
    std::vector<Candidate> cs;
    cs.reserve(near.size());
    for (const SegmentId sid : near) {
      double dist = 0.0;
      const double offset = net_.project_to_segment(sid, rp.pos, &dist);
      cs.push_back(Candidate{sid, net_.point_on_segment(sid, offset), dist});
    }
    candidates.push_back(std::move(cs));
    times.push_back(rp.t);
    ++local.matched_points;
  }

  // Point-level accounting: the caller's stats accumulate across calls, the
  // registry gets one bulk update per trace, the span carries the counts.
  const auto record = [&] {
    if (stats != nullptr) {
      stats->matched_points += local.matched_points;
      stats->dropped_points += local.dropped_points;
    }
    obs::Registry& reg = obs::Registry::global();
    reg.set_help("neat_mapmatch_traces_total", "Raw GPS traces map-matched.");
    reg.set_help("neat_mapmatch_points_total",
                 "GPS points map-matched, by outcome (matched/dropped).");
    reg.counter("neat_mapmatch_traces_total").add(1);
    reg.counter("neat_mapmatch_points_total", {{"outcome", "matched"}})
        .add(local.matched_points);
    reg.counter("neat_mapmatch_points_total", {{"outcome", "dropped"}})
        .add(local.dropped_points);
    span.arg("matched_points", static_cast<std::uint64_t>(local.matched_points));
    span.arg("dropped_points", static_cast<std::uint64_t>(local.dropped_points));
  };
  if (candidates.empty()) {
    record();
    return out;
  }

  // 2. Viterbi over the candidate lattice: the whole remaining trace is the
  // look-ahead window.
  const std::size_t n = candidates.size();
  std::vector<std::vector<double>> cost(n);
  std::vector<std::vector<int>> back(n);
  cost[0].resize(candidates[0].size());
  back[0].assign(candidates[0].size(), -1);
  for (std::size_t c = 0; c < candidates[0].size(); ++c) cost[0][c] = candidates[0][c].emission;

  for (std::size_t i = 1; i < n; ++i) {
    cost[i].assign(candidates[i].size(), std::numeric_limits<double>::infinity());
    back[i].assign(candidates[i].size(), -1);
    for (std::size_t c = 0; c < candidates[i].size(); ++c) {
      const Candidate& cur = candidates[i][c];
      for (std::size_t p = 0; p < candidates[i - 1].size(); ++p) {
        const Candidate& prev = candidates[i - 1][p];
        double transition = 0.0;
        if (prev.sid != cur.sid) {
          transition = net_.are_adjacent(prev.sid, cur.sid)
                           ? config_.adjacent_transition_cost
                           : config_.disconnected_transition_cost;
        }
        const double total = cost[i - 1][p] + transition + cur.emission;
        if (total < cost[i][c]) {
          cost[i][c] = total;
          back[i][c] = static_cast<int>(p);
        }
      }
    }
  }

  // 3. Backtrack the cheapest assignment.
  std::size_t best = 0;
  for (std::size_t c = 1; c < cost[n - 1].size(); ++c) {
    if (cost[n - 1][c] < cost[n - 1][best]) best = c;
  }
  std::vector<std::size_t> chosen(n);
  chosen[n - 1] = best;
  for (std::size_t i = n - 1; i > 0; --i) {
    chosen[i - 1] = static_cast<std::size_t>(back[i][chosen[i]]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Candidate& c = candidates[i][chosen[i]];
    out.append(traj::Location{c.sid, c.projected, times[i], false});
  }
  record();
  return out;
}

traj::TrajectoryDataset LookAheadMatcher::match_all(
    const std::vector<traj::RawTrace>& traces, MatchStats* stats) const {
  obs::ScopedSpan span("mapmatch.match_all");
  span.arg("traces", static_cast<std::uint64_t>(traces.size()));
  traj::TrajectoryDataset out;
  for (const traj::RawTrace& trace : traces) {
    traj::Trajectory matched = match(trace, stats);
    if (!matched.empty()) out.add(std::move(matched));
  }
  return out;
}

}  // namespace neat::mapmatch
