// Figure 5 — flow-NEAT vs TraClus on the ATL datasets:
//   (a) average representative route length,
//   (b) maximum representative route length,
//   (c) number of resulting clusters,
//   (d) running time (the paper's semi-log plot; NEAT is orders of
//       magnitude faster).
// Plus the §IV-C TraClus network variant (base clusters + modified
// Hausdorff distance) on one dataset, mirroring the SJ2000 comparison.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "paper_bench_log.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/clusterer.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "traclus/network_variant.h"
#include "traclus/traclus.h"

using namespace neat;

int main() {
  bench::default_logs_to_warn();
  eval::print_scale_banner(std::cout, "Figure 5: flow-NEAT vs TraClus (ATL datasets)");
  eval::ExperimentEnv& env = eval::ExperimentEnv::instance();
  const roadnet::RoadNetwork& net = env.network("ATL");

  Config neat_cfg;
  neat_cfg.refine.epsilon = 3000.0;
  const NeatClusterer clusterer(net, neat_cfg);

  eval::TextTable table({"dataset", "points", "avg route m (NEAT)", "avg rep m (TraClus)",
                         "max route m (NEAT)", "max rep m (TraClus)", "#clusters (NEAT)",
                         "#clusters (TraClus)", "NEAT s", "TraClus s", "speedup"});

  for (const std::size_t objects : eval::kPaperObjectCounts) {
    const traj::TrajectoryDataset& data = env.dataset("ATL", objects);

    Stopwatch watch;
    const Result neat_res = clusterer.run(data);
    const double neat_s = watch.elapsed_seconds();
    const eval::RouteLengthStats neat_stats = eval::flow_route_stats(neat_res.flow_clusters);

    traclus::Config tcfg;
    tcfg.epsilon = 10.0;
    tcfg.min_lns = std::max(2, static_cast<int>(std::lround(
                                   30.0 * static_cast<double>(data.size()) / 500.0)));
    watch.restart();
    const traclus::Result traclus_res = traclus::run(data, tcfg);
    const double traclus_s = watch.elapsed_seconds();
    const eval::RouteLengthStats tr_stats = eval::traclus_route_stats(traclus_res.clusters);

    table.add_row({str_cat("ATL", objects), std::to_string(data.total_points()),
                   format_fixed(neat_stats.avg_m, 0), format_fixed(tr_stats.avg_m, 0),
                   format_fixed(neat_stats.max_m, 0), format_fixed(tr_stats.max_m, 0),
                   std::to_string(neat_stats.count), std::to_string(tr_stats.count),
                   format_fixed(neat_s, 3), format_fixed(traclus_s, 3),
                   format_fixed(neat_s > 0 ? traclus_s / neat_s : 0.0, 1)});
  }
  table.print(std::cout);
  table.write_csv(eval::results_dir() + "/fig5_comparison.csv");
  std::cout << "\npaper reference points (full scale, Java): TraClus 2573.5 s on ATL500\n"
               "and 334735.1 s on ATL5000 vs opt-NEAT 1.29 s and 59.7 s — a >1000x gap.\n"
               "Shapes to check above: NEAT routes longer (a, b), NEAT clusters fewer\n"
               "(c), NEAT faster with a growing gap (d).\n";

  // §IV-C: the TraClus variant fed with NEAT base clusters + the modified
  // Hausdorff network distance (paper anchor: SJ2000 -> 6396.79 s / 117
  // clusters vs NEAT 11.68 s / 42 flows + 14 clusters).
  std::cout << "\nTraClus network variant (base clusters + network Hausdorff), ATL2000:\n";
  const traj::TrajectoryDataset& data2000 = env.dataset("ATL", 2000);
  Config flow_cfg;
  flow_cfg.mode = Mode::kBase;
  const Result base_only = NeatClusterer(net, flow_cfg).run(data2000);

  Stopwatch watch;
  traclus::NetworkVariantConfig vcfg;
  vcfg.epsilon = 300.0;
  vcfg.min_lns = 3;
  const traclus::NetworkVariantResult variant =
      traclus::run_network_variant(net, base_only.base_clusters, vcfg);
  const double variant_s = watch.elapsed_seconds();

  watch.restart();
  const Result neat_full = clusterer.run(data2000);
  const double neat_s = watch.elapsed_seconds();

  eval::TextTable vtable({"method", "input units", "clusters", "sp-calls", "seconds"});
  vtable.add_row({"TraClus variant", str_cat(base_only.base_clusters.size(), " base clusters"),
                  std::to_string(variant.clusters.size()),
                  std::to_string(variant.sp_computations), format_fixed(variant_s, 3)});
  vtable.add_row({"opt-NEAT",
                  str_cat(neat_full.num_fragments, " t-fragments"),
                  str_cat(neat_full.flow_clusters.size(), " flows + ",
                          neat_full.final_clusters.size(), " final"),
                  std::to_string(neat_full.sp_computations), format_fixed(neat_s, 3)});
  vtable.print(std::cout);
  vtable.write_csv(eval::results_dir() + "/fig5_network_variant.csv");
  return 0;
}
