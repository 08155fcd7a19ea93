// Extension bench (not a paper figure): three-way comparison of NEAT
// against both baseline families on ATL1000 — TraClus (partial,
// Euclidean-density) and Trajectory-OPTICS (whole-trajectory). Quantifies
// the related-work positioning of §V: whole-trajectory clustering cannot
// expose shared sub-routes, and both baselines are distance-computation
// bound.
#include <iostream>

#include "paper_bench_log.h"
#include "baselines/trajectory_optics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/clusterer.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "traclus/traclus.h"

using namespace neat;

int main() {
  bench::default_logs_to_warn();
  eval::print_scale_banner(std::cout, "Baselines: NEAT vs TraClus vs Trajectory-OPTICS");
  eval::ExperimentEnv& env = eval::ExperimentEnv::instance();
  const roadnet::RoadNetwork& net = env.network("ATL");
  const traj::TrajectoryDataset& data = env.dataset("ATL", 1000);

  eval::TextTable table({"method", "clusters", "unit", "distance computations", "seconds"});

  {
    Stopwatch watch;
    Config cfg;
    cfg.refine.epsilon = 3000.0;
    const Result res = NeatClusterer(net, cfg).run(data);
    table.add_row({"opt-NEAT",
                   str_cat(res.flow_clusters.size(), " flows + ", res.final_clusters.size(),
                           " final"),
                   "t-fragments / base clusters", std::to_string(res.sp_computations),
                   format_fixed(watch.elapsed_seconds(), 3)});
  }
  {
    Stopwatch watch;
    traclus::Config cfg;
    cfg.epsilon = 10.0;
    cfg.min_lns = std::max<int>(2, static_cast<int>(data.size() * 30 / 500));
    const traclus::Result res = traclus::run(data, cfg);
    table.add_row({"TraClus", std::to_string(res.clusters.size()), "line segments",
                   std::to_string(res.distance_computations),
                   format_fixed(watch.elapsed_seconds(), 3)});
  }
  {
    Stopwatch watch;
    baselines::OpticsConfig cfg;
    cfg.eps = 800.0;
    cfg.min_pts = 4;
    const baselines::OpticsResult res = baselines::run_trajectory_optics(data, cfg);
    std::size_t noise = 0;
    for (const int label : res.labels) {
      if (label < 0) ++noise;
    }
    table.add_row({"Trajectory-OPTICS",
                   str_cat(res.num_clusters, " (+", noise, " noise)"),
                   "whole trajectories", std::to_string(res.distance_computations),
                   format_fixed(watch.elapsed_seconds(), 3)});
  }
  table.print(std::cout);
  table.write_csv(eval::results_dir() + "/baseline_optics.csv");
  std::cout << "\n(whole-trajectory clusters group by origin/destination pair and say\n"
               "nothing about shared corridors; NEAT's flows are route-structured)\n";
  return 0;
}
