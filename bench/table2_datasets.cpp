// Table II — datasets used in the experiments.
//
// The paper reports the number of location points of each dataset
// {ATL,SJ,MIA} x {500,1000,2000,3000,5000}. This binary simulates the same
// grid (at the configured scale) and prints measured point counts beside
// the paper's, plus the points-per-object ratio, which is the
// scale-invariant quantity to compare.
#include <iostream>

#include "paper_bench_log.h"
#include "common/string_util.h"
#include "eval/experiments.h"
#include "eval/table.h"

using namespace neat;

namespace {

// Paper Table II: number of points per dataset.
constexpr std::size_t kPaperPoints[3][5] = {
    {114878, 233793, 468738, 669924, 1277521},   // ATL
    {131982, 255162, 542598, 794638, 1296739},   // SJ
    {276711, 452224, 893412, 1302145, 2262313},  // MIA
};

}  // namespace

int main() {
  bench::default_logs_to_warn();
  eval::print_scale_banner(std::cout, "Table II: trajectory datasets");
  eval::ExperimentEnv& env = eval::ExperimentEnv::instance();

  eval::TextTable table({"dataset", "objects (paper)", "objects (sim)", "points (paper)",
                         "points (sim)", "pts/obj (paper)", "pts/obj (sim)"});
  for (std::size_t c = 0; c < eval::kCities.size(); ++c) {
    for (std::size_t i = 0; i < eval::kPaperObjectCounts.size(); ++i) {
      const std::size_t paper_objects = eval::kPaperObjectCounts[i];
      const traj::TrajectoryDataset& data = env.dataset(eval::kCities[c], paper_objects);
      const std::size_t paper_points = kPaperPoints[c][i];
      table.add_row(
          {str_cat(eval::kCities[c], paper_objects), std::to_string(paper_objects),
           std::to_string(data.size()), std::to_string(paper_points),
           std::to_string(data.total_points()),
           format_fixed(static_cast<double>(paper_points) /
                            static_cast<double>(paper_objects),
                        1),
           format_fixed(data.size() == 0
                            ? 0.0
                            : static_cast<double>(data.total_points()) /
                                  static_cast<double>(data.size()),
                        1)});
    }
  }
  table.print(std::cout);
  table.write_csv(eval::results_dir() + "/table2_datasets.csv");
  return 0;
}
