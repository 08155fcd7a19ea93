// Table I — road networks used in the experiments.
//
// The paper reports, for North West Atlanta / West San Jose / Miami-Dade:
// total length, segment count, junction count, average segment length, and
// average/maximum junction degree. This binary generates the three synthetic
// stand-in networks and prints their measured statistics next to the paper's
// values, so the fidelity of the Table I substitution is auditable. The two
// extra columns characterise the contraction-hierarchy preprocessing on each
// generated network (build seconds and inserted shortcuts) — the one-time
// cost the distance-ladder benchmarks amortise.
#include <iostream>

#include "paper_bench_log.h"
#include "common/string_util.h"
#include "eval/experiments.h"
#include "eval/table.h"
#include "roadnet/ch_engine.h"

using namespace neat;

namespace {

struct PaperRow {
  const char* city;
  const char* region;
  double total_km;
  int segments;
  int junctions;
  double avg_len;
  double avg_deg;
  int max_deg;
};

constexpr PaperRow kPaper[] = {
    {"ATL", "North West Atlanta, GA", 1384.4, 9187, 6979, 150.7, 2.6, 6},
    {"SJ", "West San Jose, CA", 1821.2, 14600, 10929, 124.7, 2.7, 6},
    {"MIA", "Miami-Dade, FL", 26148.3, 154681, 103377, 169.0, 3.0, 9},
};

}  // namespace

int main() {
  bench::default_logs_to_warn();
  eval::print_scale_banner(std::cout, "Table I: road networks");
  eval::ExperimentEnv& env = eval::ExperimentEnv::instance();

  eval::TextTable table({"region", "source", "total km", "#segments", "#junctions",
                         "avg seg m", "avg deg", "max deg", "CH prep s", "#shortcuts"});
  for (const PaperRow& row : kPaper) {
    table.add_row({row.region, "paper", format_fixed(row.total_km, 1),
                   std::to_string(row.segments), std::to_string(row.junctions),
                   format_fixed(row.avg_len, 1), format_fixed(row.avg_deg, 1),
                   std::to_string(row.max_deg), "-", "-"});
    const roadnet::RoadNetwork& net = env.network(row.city);
    const roadnet::NetworkStats st = net.stats();
    const roadnet::ChEngine ch(net);
    table.add_row({"", "generated", format_fixed(st.total_length_km, 1),
                   std::to_string(st.num_segments), std::to_string(st.num_junctions),
                   format_fixed(st.avg_segment_length_m, 1),
                   format_fixed(st.avg_junction_degree, 1),
                   std::to_string(st.max_junction_degree),
                   format_fixed(ch.preprocessing_seconds(), 3),
                   std::to_string(ch.shortcut_count())});
  }
  table.print(std::cout);
  table.write_csv(eval::results_dir() + "/table1_networks.csv");
  std::cout << "\n(note: generated counts scale with NEAT_BENCH_NET_SCALE; ratios — avg\n"
               "segment length, junction degree — are scale invariant)\n";
  return 0;
}
