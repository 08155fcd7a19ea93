// Figure 7 — effectiveness of the Phase 3 pruning ladder.
//
// Compares five opt-NEAT variants on the ATL (a) and SJ (b) datasets:
//   none         — opt-NEAT-Dijkstra: no prefilter, full shortest paths;
//   ELB          — the paper's Euclidean lower bound (§III-C.3);
//   ELB+landmark — ELB, then the ALT triangle-inequality bound, with the
//                  landmark tables also steering surviving searches as A*
//                  potentials;
//   ELB+CH-nolm  — ELB, with surviving pairs answered by the contraction
//                  hierarchy's memoized upward labels (exact, same
//                  clusters, a fraction of the settled nodes);
//   ELB+CH       — ELB+CH-nolm with the landmark bound in front of the
//                  hierarchy. Its sp-calls, lm-pruned and settled columns
//                  against ELB+CH-nolm show what the landmark prune saves
//                  under CH. The phase3 s column cannot show it: every run
//                  builds a fresh hierarchy, which costs far more than the
//                  searches at these scales.
// The paper's observations to reproduce: the Dijkstra variant's cost tracks
// the *number of flows* (Table III), not the dataset size — visible in the
// SJ series — and ELB removes most of the shortest-path work. The landmark
// row must show strictly fewer Dijkstra runs than ELB alone on these
// grid-like networks, where straight-line bounds are loose. The settled
// column is the ladder's work proxy: ELB+CH must settle >= 5x fewer nodes
// than ELB+landmark.
#include <iostream>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "paper_bench_log.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/clusterer.h"
#include "eval/experiments.h"
#include "eval/table.h"
#include "obs/prof/profiler.h"
#include "obs/registry.h"

using namespace neat;

namespace {

struct Variant {
  const char* name;
  Config config;
};

/// Pruning counters read back from the metric registry. The table reports
/// before/after deltas of the live counters rather than the Result's copies,
/// so the bench CSV and a scraper's view cannot drift apart.
struct PruneSample {
  std::uint64_t sp_calls{};
  std::uint64_t elb_pruned{};
  std::uint64_t lm_pruned{};
  std::uint64_t settled{};

  static PruneSample take() {
    const obs::Registry& reg = obs::Registry::global();
    return {reg.counter_value("neat_core_sp_computations_total"),
            reg.counter_value("neat_core_elb_pruned_pairs_total"),
            reg.counter_value("neat_core_lm_pruned_pairs_total"),
            reg.counter_value("neat_core_sp_settled_nodes_total")};
  }

  PruneSample operator-(const PruneSample& rhs) const {
    return {sp_calls - rhs.sp_calls, elb_pruned - rhs.elb_pruned,
            lm_pruned - rhs.lm_pruned, settled - rhs.settled};
  }
};

std::vector<Variant> variants() {
  Config none;
  none.refine.epsilon = 3000.0;
  none.refine.use_elb = false;
  // The paper's opt-NEAT-Dijkstra computes full shortest paths.
  none.refine.bound_searches_at_epsilon = false;
  Config elb;
  elb.refine.epsilon = 3000.0;
  elb.refine.use_elb = true;
  Config elb_lm = elb;
  elb_lm.refine.use_landmarks = true;
  // The CH rung without the landmark bound: every ELB survivor is searched.
  Config elb_ch_nolm = elb;
  elb_ch_nolm.refine.distance_engine = DistanceEngine::kCh;
  // The CH rung keeps the full admissible prefilter stack (ELB + landmark
  // bounds) and swaps the engine answering the surviving queries, so its
  // settled column isolates the per-query win of the hierarchy.
  Config elb_ch = elb_lm;
  elb_ch.refine.distance_engine = DistanceEngine::kCh;
  return {{"none", none},
          {"ELB", elb},
          {"ELB+landmark", elb_lm},
          {"ELB+CH-nolm", elb_ch_nolm},
          {"ELB+CH", elb_ch}};
}

/// Settled-node totals of the two accelerated rungs, accumulated across all
/// datasets — the acceptance evidence that CH answers the surviving queries
/// with >= 5x fewer settled nodes than the landmark-steered A* rung.
struct SettledTotals {
  std::uint64_t elb_lm{0};
  std::uint64_t elb_ch{0};
};

void run_city(const char* city, eval::ExperimentEnv& env, bench::BenchJson& json,
              SettledTotals& totals) {
  const roadnet::RoadNetwork& net = env.network(city);

  eval::TextTable table({"dataset", "#flows", "pruning", "total s", "phase3 s",
                         "sp-calls", "ELB-pruned", "lm-pruned", "settled"});
  for (const std::size_t objects : eval::kPaperObjectCounts) {
    const traj::TrajectoryDataset& data = env.dataset(city, objects);
    for (const Variant& v : variants()) {
      // Medians over NEAT_BENCH_REPEATS runs; the pruning counters are
      // deterministic, only the wall times vary.
      std::vector<double> totals_s, p3s;
      PruneSample d;
      std::size_t flows = 0;
      for (int rep = 0; rep < bench::repeats(); ++rep) {
        const PruneSample before = PruneSample::take();
        const Result r = NeatClusterer(net, v.config).run(data);
        d = PruneSample::take() - before;
        totals_s.push_back(r.timing.total_s());
        p3s.push_back(r.timing.phase3_s);
        flows = r.flow_clusters.size();
      }
      const double total_s = bench::median(totals_s);
      const double phase3_s = bench::median(p3s);
      if (std::string_view(v.name) == "ELB+landmark") totals.elb_lm += d.settled;
      if (std::string_view(v.name) == "ELB+CH") totals.elb_ch += d.settled;
      table.add_row({str_cat(city, objects), std::to_string(flows),
                     v.name, format_fixed(total_s, 3),
                     format_fixed(phase3_s, 3),
                     std::to_string(d.sp_calls),
                     std::to_string(d.elb_pruned),
                     std::to_string(d.lm_pruned),
                     std::to_string(d.settled)});
      json.add_row(str_cat(city, objects, "_", v.name),
                   {{"total_s", total_s},
                    {"phase3_s", phase3_s},
                    {"sp_calls", static_cast<double>(d.sp_calls)},
                    {"elb_pruned", static_cast<double>(d.elb_pruned)},
                    {"lm_pruned", static_cast<double>(d.lm_pruned)},
                    {"settled", static_cast<double>(d.settled)},
                    {"flows", static_cast<double>(flows)}});
    }
  }
  std::cout << "(" << (city[0] == 'A' ? "a" : "b") << ") " << city << " datasets:\n";
  table.print(std::cout);
  table.write_csv(str_cat(eval::results_dir(), "/fig7_", city, "_elb.csv"));
  std::cout << '\n';
}

}  // namespace

int main() {
  bench::default_logs_to_warn();
  eval::print_scale_banner(
      std::cout,
      "Figure 7: pruning ladder (none / ELB / ELB+landmark / ELB+CH-nolm / ELB+CH) in Phase 3");
  eval::ExperimentEnv& env = eval::ExperimentEnv::instance();
  bench::BenchJson json("fig7", env.object_scale(), env.network_scale());
  SettledTotals totals;
  run_city("ATL", env, json, totals);
  run_city("SJ", env, json, totals);
  std::cout << "(shapes to check: Dijkstra phase-3 time tracks #flows, not points —\n"
               "the paper's SJ1000 spike, cf. Table III — ELB collapses both the\n"
               "sp-call count and the phase-3 time, and ELB+landmark strictly\n"
               "undercuts ELB's sp-calls on these grid-like networks)\n";
  const double ratio =
      totals.elb_ch > 0 ? static_cast<double>(totals.elb_lm) / static_cast<double>(totals.elb_ch)
                        : 0.0;
  std::cout << "\nladder settled totals: ELB+landmark " << totals.elb_lm << ", ELB+CH "
            << totals.elb_ch << " (" << format_fixed(ratio, 2)
            << "x fewer nodes settled by the hierarchy)\n";
  json.add_row("ladder_settled",
               {{"elb_landmark", static_cast<double>(totals.elb_lm)},
                {"elb_ch", static_cast<double>(totals.elb_ch)},
                {"lm_over_ch_ratio", ratio}});

  // Hot-spot attribution: one extra (untimed) ELB repeat of the largest ATL
  // dataset under the sampling profiler; the top symbols ride in the
  // trajectory JSON next to the timings they explain.
  {
    const roadnet::RoadNetwork& net = env.network("ATL");
    const std::size_t largest = eval::kPaperObjectCounts.back();
    const traj::TrajectoryDataset& data = env.dataset("ATL", largest);
    Config elb;
    elb.refine.epsilon = 3000.0;
    elb.refine.use_elb = true;
    obs::prof::ProfilerOptions popts;
    popts.sample_hz = 997;  // smoke-scale runs are short; sample densely
    const NeatClusterer profiled(net, elb);
    const obs::prof::Profile profile = obs::prof::profile_call(
        [&] {
          // Re-run until ~a quarter second of work has accumulated so the
          // attribution is statistically meaningful even at smoke scale.
          const Stopwatch sw;
          do {
            static_cast<void>(profiled.run(data));
          } while (sw.elapsed_seconds() < 0.25);
        },
        popts);
    json.add_profile_row(str_cat("ATL", largest, "_ELB_profile"),
                         profile.hot_symbols(10));
    std::cout << "\nprofiled repeat (ATL" << largest << ", ELB): " << profile.samples
              << " samples, top symbols in BENCH_fig7.json\n";
  }

  const std::string json_path = eval::results_dir() + "/BENCH_fig7.json";
  json.write(json_path);
  std::cout << "\nbench trajectory written to " << json_path
            << " (diff against a baseline with tools/bench_diff.py)\n";
  return 0;
}
