// Seeded input generation for the benchmark workloads (set-up only: the
// library sees nothing but the generated networks and files).
#pragma once

#include <string>
#include <vector>

#include "common/geometry.h"
#include "core/flow_cluster.h"
#include "roadnet/road_network.h"
#include "sim/mobility_simulator.h"
#include "traj/dataset.h"

namespace perfbench {

/// Simulator settings matched to the paper's Table II shape for MIA:
/// hotspot and destination counts, sampling period and hotspot radius.
[[nodiscard]] neat::sim::SimConfig mia_sim_config(const neat::roadnet::RoadNetwork& net);

/// Writes `data` as trajectory CSV (the traj/io.h row format, 3 decimals like
/// traj::save_dataset) with std::to_chars, so set-up stays short.
void write_trajectory_csv(const neat::traj::TrajectoryDataset& data, const std::string& path);

/// Midpoints of the route segments of `flows` (deduplicated, at most
/// 4096): query points that land on a served flow.
[[nodiscard]] std::vector<neat::Point> flow_points(const neat::roadnet::RoadNetwork& net,
                                                   const std::vector<neat::FlowCluster>& flows);

}  // namespace perfbench
