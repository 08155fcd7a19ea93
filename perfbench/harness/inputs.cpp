#include "inputs.h"

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

namespace perfbench {

neat::sim::SimConfig mia_sim_config(const neat::roadnet::RoadNetwork& net) {
  // The MIA shape the paper-figure benches use (Table II: ~450 points per
  // object).
  neat::sim::SimConfig cfg = neat::sim::default_config(net, 4, 4);
  cfg.sample_period_s = 5.7;
  cfg.hotspot_radius_m = 2000.0;
  return cfg;
}

void write_trajectory_csv(const neat::traj::TrajectoryDataset& data, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::string buf;
  buf.reserve(1 << 20);
  char num[64];
  const auto put_int = [&](long long v) {
    const auto r = std::to_chars(num, num + sizeof num, v);
    buf.append(num, r.ptr);
  };
  const auto put_fixed = [&](double v) {
    const auto r = std::to_chars(num, num + sizeof num, v, std::chars_format::fixed, 3);
    buf.append(num, r.ptr);
  };
  for (const auto& tr : data) {
    for (std::size_t i = 0; i < tr.size(); ++i) {
      const auto& loc = tr.point(i);
      put_int(tr.id().value());
      buf += ',';
      put_int(static_cast<long long>(i));
      buf += ',';
      put_int(loc.sid.value());
      buf += ',';
      put_fixed(loc.pos.x);
      buf += ',';
      put_fixed(loc.pos.y);
      buf += ',';
      put_fixed(loc.t);
      buf += loc.junction_point ? ",1\n" : ",0\n";
    }
    if (buf.size() > (1 << 20) - 4096) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

std::vector<neat::Point> flow_points(const neat::roadnet::RoadNetwork& net,
                                     const std::vector<neat::FlowCluster>& flows) {
  constexpr std::size_t kLimit = 4096;
  std::vector<neat::Point> points;
  std::unordered_set<neat::SegmentId> seen;
  for (const auto& flow : flows) {
    for (const neat::SegmentId sid : flow.route) {
      if (points.size() >= kLimit) return points;
      if (!seen.insert(sid).second) continue;
      points.push_back(net.point_on_segment(sid, net.segment_length(sid) / 2.0));
    }
  }
  return points;
}

}  // namespace perfbench
