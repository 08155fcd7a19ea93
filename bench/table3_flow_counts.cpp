// Table III — number of flow clusters produced by opt-NEAT on the SJ
// datasets (paper: 73 / 156 / 55 / 52 / 180 for SJ500..SJ5000).
//
// The paper uses this table to explain the Figure 7(b) anomaly: Phase 3's
// cost depends on the number of flows, not the dataset size. We print the
// measured flow counts plus the Phase 3 work that goes with them.
#include <iostream>

#include "paper_bench_log.h"
#include "common/string_util.h"
#include "core/clusterer.h"
#include "eval/experiments.h"
#include "eval/table.h"

using namespace neat;

int main() {
  bench::default_logs_to_warn();
  eval::print_scale_banner(std::cout, "Table III: flow clusters produced by opt-NEAT (SJ)");
  eval::ExperimentEnv& env = eval::ExperimentEnv::instance();

  constexpr int kPaperFlows[] = {73, 156, 55, 52, 180};

  Config cfg;
  cfg.refine.epsilon = 3000.0;
  const NeatClusterer clusterer(env.network("SJ"), cfg);

  eval::TextTable table({"dataset", "#flows (paper)", "#flows (sim)", "#final clusters",
                         "phase3 pairs", "phase3 sp-calls", "phase3 ms"});
  for (std::size_t i = 0; i < eval::kPaperObjectCounts.size(); ++i) {
    const std::size_t objects = eval::kPaperObjectCounts[i];
    const Result res = clusterer.run(env.dataset("SJ", objects));
    table.add_row({str_cat("SJ", objects), std::to_string(kPaperFlows[i]),
                   std::to_string(res.flow_clusters.size()),
                   std::to_string(res.final_clusters.size()),
                   std::to_string(res.pairs_evaluated),
                   std::to_string(res.sp_computations),
                   format_fixed(res.timing.phase3_s * 1000.0, 2)});
  }
  table.print(std::cout);
  table.write_csv(eval::results_dir() + "/table3_flow_counts.csv");
  std::cout << "\n(the paper's point: flow counts do not grow monotonically with dataset\n"
               "size, and Phase 3 cost tracks the flow count — compare the last columns)\n";
  return 0;
}
