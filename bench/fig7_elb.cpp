// Figure 7 — effectiveness of the Phase 3 pruning ladder.
//
// Compares three opt-NEAT variants on the ATL (a) and SJ (b) datasets:
//   none         — opt-NEAT-Dijkstra: no prefilter, full shortest paths;
//   ELB          — the paper's Euclidean lower bound (§III-C.3);
//   ELB+landmark — ELB, then the ALT triangle-inequality bound, with the
//                  landmark tables also steering surviving searches as A*
//                  potentials.
// The paper's observations to reproduce: the Dijkstra variant's cost tracks
// the *number of flows* (Table III), not the dataset size — visible in the
// SJ series — and ELB removes most of the shortest-path work. The bench
// checks the count claims on every dataset, and exits 1 naming the dataset
// and the claim when one fails:
//   * ELB removes at least half of none's shortest-path computations;
//   * ELB+landmark issues no more of them than ELB;
//   * all three variants give identical final clusters.
// The times are printed, not checked.
#include <algorithm>
#include <iostream>
#include <string>
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
#include "roadnet/landmark_oracle.h"

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
  elb_lm.refine.landmarks = roadnet::LandmarkOracle::kDefaultLandmarks;
  return {{"none", none}, {"ELB", elb}, {"ELB+landmark", elb_lm}};
}

/// True when both runs formed the same final clusters: the same flows and
/// the same participants, in the same order.
bool same_clusters(const std::vector<FinalCluster>& a, const std::vector<FinalCluster>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const FinalCluster& x, const FinalCluster& y) {
                      return x.flows == y.flows && x.participants == y.participants;
                    });
}

/// Checks one dataset's rows (in variants() order) against the Figure 7
/// claims and appends a line naming the dataset and the claim for each one
/// that fails.
void check_shape(const std::string& dataset, const std::vector<PruneSample>& samples,
                 const std::vector<std::vector<FinalCluster>>& finals,
                 std::vector<std::string>& failures) {
  const std::uint64_t none = samples[0].sp_calls;
  const std::uint64_t elb = samples[1].sp_calls;
  const std::uint64_t elb_lm = samples[2].sp_calls;
  if (2 * elb > none) {
    failures.push_back(str_cat(dataset, ": ELB issues ", elb, " of none's ", none,
                               " sp-calls; the claim is that it removes at least half"));
  }
  if (elb_lm > elb) {
    failures.push_back(str_cat(dataset, ": ELB+landmark issues ", elb_lm,
                               " sp-calls, more than ELB's ", elb,
                               "; the claim is no more than ELB"));
  }
  for (std::size_t v = 1; v < finals.size(); ++v) {
    if (!same_clusters(finals[0], finals[v])) {
      failures.push_back(str_cat(dataset, ": ", variants()[v].name,
                                 " forms other final clusters than none; the claim is"
                                 " identical clusters in every variant"));
    }
  }
}

void run_city(const char* city, eval::ExperimentEnv& env, bench::BenchJson& json,
              std::vector<std::string>& failures) {
  const roadnet::RoadNetwork& net = env.network(city);

  eval::TextTable table({"dataset", "#flows", "pruning", "total s", "phase3 s",
                         "sp-calls", "ELB-pruned", "lm-pruned", "settled"});
  for (const std::size_t objects : eval::kPaperObjectCounts) {
    const traj::TrajectoryDataset& data = env.dataset(city, objects);
    std::vector<PruneSample> samples;
    std::vector<std::vector<FinalCluster>> finals;
    for (const Variant& v : variants()) {
      // Medians over NEAT_BENCH_REPEATS runs; the pruning counters are
      // deterministic, only the wall times vary.
      std::vector<double> totals_s, p3s;
      PruneSample d;
      Result r;
      for (int rep = 0; rep < bench::repeats(); ++rep) {
        const PruneSample before = PruneSample::take();
        r = NeatClusterer(net, v.config).run(data);
        d = PruneSample::take() - before;
        totals_s.push_back(r.timing.total_s());
        p3s.push_back(r.timing.phase3_s);
      }
      const std::size_t flows = r.flow_clusters.size();
      const double total_s = bench::median(totals_s);
      const double phase3_s = bench::median(p3s);
      samples.push_back(d);
      finals.push_back(std::move(r.final_clusters));
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
    check_shape(str_cat(city, objects), samples, finals, failures);
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
      "Figure 7: pruning ladder (none / ELB / ELB+landmark) in Phase 3");
  eval::ExperimentEnv& env = eval::ExperimentEnv::instance();
  bench::BenchJson json("fig7", env.object_scale(), env.network_scale());
  std::vector<std::string> failures;
  run_city("ATL", env, json, failures);
  run_city("SJ", env, json, failures);
  std::cout << "(shapes to see by eye: Dijkstra phase-3 time tracks #flows, not\n"
               "points — the paper's SJ1000 spike, cf. Table III — and ELB collapses\n"
               "the phase-3 time with the sp-call count)\n";

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

  if (!failures.empty()) {
    for (const std::string& f : failures) std::cout << "FAIL " << f << '\n';
    return 1;
  }
  std::cout << "\nFigure 7 shape holds on every dataset: ELB removes at least half of\n"
               "none's sp-calls, ELB+landmark issues no more than ELB, and the final\n"
               "clusters are identical in all three variants\n";
  return 0;
}
