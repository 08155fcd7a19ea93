// Figure 3 — NEAT clustering results on ATL500.
//
// The paper plots (a) the 500 input trajectories, (b) the 31 flow clusters
// found by flow-NEAT with minCard = average cardinality, and (c) the 2
// final clusters after density-based refinement with eps = 6500 m. This
// binary reproduces the pipeline on the synthetic ATL network, prints the
// corresponding counts, and writes plottable polylines (input trajectories,
// flow routes tagged by flow id, final clusters tagged by cluster id) to
// bench_results/fig3_*.csv.
#include <fstream>
#include <iostream>

#include "paper_bench_log.h"
#include "common/string_util.h"
#include "core/clusterer.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "eval/svg.h"
#include "eval/table.h"

using namespace neat;

namespace {

void dump_flow_routes(const roadnet::RoadNetwork& net, const Result& res,
                      const std::string& path) {
  std::ofstream out(path);
  out << "flow,final_cluster,seq,x,y\n";
  std::vector<int> final_of(res.flow_clusters.size(), -1);
  for (std::size_t c = 0; c < res.final_clusters.size(); ++c) {
    for (const std::size_t f : res.final_clusters[c].flows) {
      final_of[f] = static_cast<int>(c);
    }
  }
  for (std::size_t f = 0; f < res.flow_clusters.size(); ++f) {
    const FlowCluster& flow = res.flow_clusters[f];
    for (std::size_t j = 0; j < flow.junctions.size(); ++j) {
      const Point p = net.node(flow.junctions[j]).pos;
      out << f << ',' << final_of[f] << ',' << j << ',' << p.x << ',' << p.y << '\n';
    }
  }
}

void dump_trajectories(const traj::TrajectoryDataset& data, const std::string& path) {
  std::ofstream out(path);
  out << "trid,seq,x,y\n";
  for (const traj::Trajectory& tr : data) {
    for (std::size_t i = 0; i < tr.size(); ++i) {
      out << tr.id().value() << ',' << i << ',' << tr.point(i).pos.x << ','
          << tr.point(i).pos.y << '\n';
    }
  }
}

}  // namespace

int main() {
  bench::default_logs_to_warn();
  eval::print_scale_banner(std::cout, "Figure 3: NEAT clustering results on ATL500");
  eval::ExperimentEnv& env = eval::ExperimentEnv::instance();
  const roadnet::RoadNetwork& net = env.network("ATL");
  const traj::TrajectoryDataset& data = env.dataset("ATL", 500);

  Config cfg;                      // minCard: auto (average cardinality), as in the paper
  cfg.refine.epsilon = 6500.0;     // the paper's Figure 3(c) threshold
  const Result res = NeatClusterer(net, cfg).run(data);

  eval::TextTable table({"stage", "paper (ATL500)", "measured"});
  table.add_row({"input trajectories", "500", std::to_string(data.size())});
  table.add_row({"flow clusters (minCard=avg)", "31",
                 std::to_string(res.flow_clusters.size())});
  table.add_row({"effective minCard", "5", format_fixed(res.effective_min_card, 2)});
  table.add_row({"final clusters (eps=6500m)", "2",
                 std::to_string(res.final_clusters.size())});
  table.print(std::cout);
  table.write_csv(eval::results_dir() + "/fig3_counts.csv");

  const eval::RouteLengthStats stats = eval::flow_route_stats(res.flow_clusters);
  std::cout << "\nflow route lengths: avg " << format_fixed(stats.avg_m / 1000.0, 2)
            << " km, max " << format_fixed(stats.max_m / 1000.0, 2) << " km\n";
  std::cout << "trajectory coverage of kept flows: "
            << format_fixed(100.0 * eval::trajectory_coverage(res, data.size()), 1)
            << "%\n";

  dump_trajectories(data, eval::results_dir() + "/fig3_input_trajectories.csv");
  dump_flow_routes(net, res, eval::results_dir() + "/fig3_flow_routes.csv");

  // Render the three panels of the paper's figure as SVG: (a) the input
  // trajectories, (b) the flow clusters, (c) flows colored by final cluster.
  {
    eval::SvgWriter svg(net.bounding_box());
    svg.add_network(net);
    for (const traj::Trajectory& tr : data) {
      std::vector<Point> pts;
      for (const traj::Location& loc : tr.points()) pts.push_back(loc.pos);
      svg.add_polyline(pts, "#2ca02c", 1.0, 0.4);  // green, like the paper
    }
    svg.write(eval::results_dir() + "/fig3a_input.svg");
  }
  const auto flow_polyline = [&](const FlowCluster& f) {
    std::vector<Point> pts;
    for (const NodeId j : f.junctions) pts.push_back(net.node(j).pos);
    return pts;
  };
  {
    eval::SvgWriter svg(net.bounding_box());
    svg.add_network(net);
    for (std::size_t f = 0; f < res.flow_clusters.size(); ++f) {
      svg.add_polyline(flow_polyline(res.flow_clusters[f]),
                       eval::SvgWriter::qualitative_color(f), 2.5, 0.9);
    }
    svg.write(eval::results_dir() + "/fig3b_flows.svg");
  }
  {
    eval::SvgWriter svg(net.bounding_box());
    svg.add_network(net);
    for (std::size_t c = 0; c < res.final_clusters.size(); ++c) {
      for (const std::size_t f : res.final_clusters[c].flows) {
        svg.add_polyline(flow_polyline(res.flow_clusters[f]),
                         eval::SvgWriter::qualitative_color(c), 2.5, 0.9);
      }
    }
    svg.write(eval::results_dir() + "/fig3c_clusters.svg");
  }

  std::cout << "\npolylines written to " << eval::results_dir()
            << "/fig3_input_trajectories.csv and fig3_flow_routes.csv;\n"
            << "figure panels rendered to fig3a_input.svg, fig3b_flows.svg, "
            << "fig3c_clusters.svg\n";
  return 0;
}
