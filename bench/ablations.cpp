// Ablation studies for the design choices DESIGN.md calls out (not a paper
// figure — extensions):
//   1. merging-selectivity weight presets (wq, wk, wv) — §III-B.2 discusses
//      them qualitatively; here their quantitative effect on the clustering,
//   2. the β domination threshold,
//   3. the minCard filter,
//   4. ELB and ε-bounded searches in Phase 3 (work counters).
// All on the ATL1000 dataset.
#include <cmath>
#include <iostream>
#include <limits>

#include "paper_bench_log.h"
#include "common/string_util.h"
#include "core/clusterer.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "eval/table.h"

using namespace neat;

int main() {
  bench::default_logs_to_warn();
  eval::print_scale_banner(std::cout, "Ablations: SF weights, beta, minCard, ELB (ATL1000)");
  eval::ExperimentEnv& env = eval::ExperimentEnv::instance();
  const roadnet::RoadNetwork& net = env.network("ATL");
  const traj::TrajectoryDataset& data = env.dataset("ATL", 1000);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // 1. Weight presets.
  struct Preset {
    const char* name;
    double wq, wk, wv;
  };
  const Preset presets[] = {
      {"maxFlow (1,0,0)", 1, 0, 0},          {"densest (0,1,0)", 0, 1, 0},
      {"fastest (0,0,1)", 0, 0, 1},          {"balanced (1/3 each)", 1, 1, 1},
      {"monitoring (1/2,1/2,0)", 1, 1, 0},
  };
  eval::TextTable weights({"preset", "#flows", "avg route m", "max route m",
                           "traj coverage %", "avg cardinality"});
  for (const Preset& p : presets) {
    Config cfg;
    cfg.mode = Mode::kFlow;
    cfg.flow.wq = p.wq;
    cfg.flow.wk = p.wk;
    cfg.flow.wv = p.wv;
    const Result res = NeatClusterer(net, cfg).run(data);
    const eval::RouteLengthStats st = eval::flow_route_stats(res.flow_clusters);
    double card_sum = 0.0;
    for (const FlowCluster& f : res.flow_clusters) card_sum += f.cardinality();
    weights.add_row(
        {p.name, std::to_string(st.count), format_fixed(st.avg_m, 0),
         format_fixed(st.max_m, 0),
         format_fixed(100.0 * eval::trajectory_coverage(res, data.size()), 1),
         format_fixed(st.count ? card_sum / static_cast<double>(st.count) : 0.0, 1)});
  }
  std::cout << "1. merging-selectivity weight presets:\n";
  weights.print(std::cout);
  weights.write_csv(eval::results_dir() + "/ablation_weights.csv");

  // 2. Beta sweep.
  eval::TextTable beta_table({"beta", "#flows", "avg route m", "max route m"});
  for (const double beta : {1.5, 2.0, 3.0, 5.0, 10.0, kInf}) {
    Config cfg;
    cfg.mode = Mode::kFlow;
    cfg.flow.beta = beta;
    const Result res = NeatClusterer(net, cfg).run(data);
    const eval::RouteLengthStats st = eval::flow_route_stats(res.flow_clusters);
    beta_table.add_row({std::isinf(beta) ? "inf" : format_fixed(beta, 1),
                        std::to_string(st.count), format_fixed(st.avg_m, 0),
                        format_fixed(st.max_m, 0)});
  }
  std::cout << "\n2. domination threshold beta:\n";
  beta_table.print(std::cout);
  beta_table.write_csv(eval::results_dir() + "/ablation_beta.csv");

  // 3. minCard sweep (-1 = auto).
  eval::TextTable card_table({"minCard", "effective", "#kept", "#filtered",
                              "fragment coverage %", "traj coverage %"});
  for (const double mc : {0.0, 1.0, 2.0, -1.0, 5.0, 10.0}) {
    Config cfg;
    cfg.mode = Mode::kFlow;
    cfg.flow.min_card = mc;
    const Result res = NeatClusterer(net, cfg).run(data);
    card_table.add_row(
        {mc < 0 ? "auto (avg)" : format_fixed(mc, 0),
         format_fixed(res.effective_min_card, 2), std::to_string(res.flow_clusters.size()),
         std::to_string(res.filtered_flows.size()),
         format_fixed(100.0 * eval::fragment_coverage(res), 1),
         format_fixed(100.0 * eval::trajectory_coverage(res, data.size()), 1)});
  }
  std::cout << "\n3. minCard filter:\n";
  card_table.print(std::cout);
  card_table.write_csv(eval::results_dir() + "/ablation_mincard.csv");

  // 4. Phase 3 work: ELB x bounded-search grid.
  eval::TextTable p3({"variant", "phase3 ms", "sp-calls", "pruned pairs", "#final"});
  struct Variant {
    const char* name;
    bool elb;
    bool bound;
  };
  const Variant variants[] = {{"ELB + bounded (default)", true, true},
                              {"ELB only", true, false},
                              {"bounded only", false, true},
                              {"plain Dijkstra (paper's)", false, false}};
  for (const Variant& v : variants) {
    Config cfg;
    cfg.refine.use_elb = v.elb;
    cfg.refine.bound_searches_at_epsilon = v.bound;
    const Result res = NeatClusterer(net, cfg).run(data);
    p3.add_row({v.name, format_fixed(res.timing.phase3_s * 1000.0, 2),
                std::to_string(res.sp_computations), std::to_string(res.elb_pruned_pairs),
                std::to_string(res.final_clusters.size())});
  }
  std::cout << "\n4. Phase 3 optimizations (identical clusterings, different work):\n";
  p3.print(std::cout);
  p3.write_csv(eval::results_dir() + "/ablation_phase3.csv");

  // 5. Flow distance mode: the paper's endpoint prototype vs the full-route
  // refinement it points toward.
  eval::TextTable mode_table({"distance mode", "#final clusters", "phase3 ms", "sp-calls"});
  for (const auto& [label, mode] :
       {std::pair{"endpoints (paper prototype)", FlowDistanceMode::kEndpoints},
        std::pair{"full route", FlowDistanceMode::kFullRoute}}) {
    Config cfg;
    cfg.refine.distance_mode = mode;
    const Result res = NeatClusterer(net, cfg).run(data);
    mode_table.add_row({label, std::to_string(res.final_clusters.size()),
                        format_fixed(res.timing.phase3_s * 1000.0, 2),
                        std::to_string(res.sp_computations)});
  }
  std::cout << "\n5. flow distance mode (endpoint vs full-route Hausdorff):\n";
  mode_table.print(std::cout);
  mode_table.write_csv(eval::results_dir() + "/ablation_distance_mode.csv");
  return 0;
}
