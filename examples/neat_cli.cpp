// neat_cli — command-line front end for the NEAT library.
//
// Clusters a trajectory dataset over a road network, both given as CSV files
// (the formats of roadnet::save_network / traj::save_dataset), and writes
// the discovered clusters back as CSV.
//
//   $ ./neat_cli --network net.csv --trajectories trips.csv
//                [--columnar] [--mode base|flow|opt] [--epsilon M] [--min-card N|auto]
//                [--wq X --wk Y --wv Z] [--beta B] [--no-elb]
//                [--landmarks N] [--distance-engine dijkstra|alt|ch]
//                [--threads N] [--refine-threads N]
//                [--metrics-out metrics.prom] [--trace-out trace.json]
//                [--profile-out profile.folded]
//                [--admin-port PORT] [--out prefix]
//                [--log-level LEVEL] [--log-out FILE]
//
// --distance-engine picks the Phase 3 shortest-distance backend: plain
// Dijkstra, ALT (Dijkstra with landmark A*, same as --landmarks with the
// default count), or a contraction hierarchy with memoized upward labels
// (fastest; exact in all cases).
//
// --columnar treats --trajectories as a binary columnar file (written by
// neat_convert or sim::generate_columnar_stream) and runs Phase 1
// out-of-core: the file is memory-mapped and scanned in bounded-memory
// batches, so datasets larger than RAM cluster fine. Results are
// bit-identical to the CSV path on the same data.
//
// --metrics-out dumps the run's metric registry as Prometheus text
// exposition; --trace-out enables the pipeline tracer and writes a Chrome
// trace_event JSON loadable in chrome://tracing or https://ui.perfetto.dev
// (nested spans for Phases 1-3 including one span per parallel-refiner
// worker). --admin-port serves the same registry and tracer live on
// 127.0.0.1:PORT (/metrics, /healthz, /readyz, /statusz, /tracez) for the
// duration of the run — handy for watching a long clustering job from curl
// or a Prometheus scraper; 0 picks a free port (printed on startup).
//
// --profile-out runs the sampling CPU profiler (src/obs/prof/) across the
// clustering run and writes the collapsed-stack profile; render it with
//   $ python3 tools/fold2svg.py profile.folded profile.svg
//
// Try it end to end (generates its own demo inputs when given --demo):
//   $ ./neat_cli --demo
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/string_util.h"
#include "core/clusterer.h"
#include "eval/report.h"
#include "obs/http_exporter.h"
#include "obs/log/log.h"
#include "obs/prof/profiler.h"
#include "obs/registry.h"
#include "obs/resource_sampler.h"
#include "obs/trace.h"
#include "roadnet/generators.h"
#include "roadnet/io.h"
#include "sim/mobility_simulator.h"
#include "store/columnar_store.h"
#include "traj/io.h"

using namespace neat;

namespace {

struct CliOptions {
  std::string network_path;
  std::string trajectories_path;
  std::string out_prefix{"neat_out"};
  std::string metrics_out;  ///< Prometheus text exposition file ("" = off).
  std::string trace_out;    ///< Chrome trace JSON file ("" = tracing off).
  std::string profile_out;  ///< Folded CPU profile file ("" = profiler off).
  std::string log_out;      ///< JSON log lines file ("" = stderr).
  int admin_port{-1};       ///< -1 = no admin server; 0 = ephemeral port.
  obs::log::Level log_level{obs::log::Level::kInfo};
  Config config;
  bool columnar{false};  ///< --trajectories is a columnar file, run out-of-core.
  bool demo{false};
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n\n"
            << "usage: neat_cli --network NET.csv --trajectories TRIPS.csv\n"
            << "                [--columnar] [--mode base|flow|opt] [--epsilon METRES]\n"
            << "                [--min-card N|auto] [--wq X --wk Y --wv Z]\n"
            << "                [--beta B|inf] [--no-elb] [--landmarks N]\n"
            << "                [--distance-engine dijkstra|alt|ch]\n"
            << "                [--threads N] [--refine-threads N] [--out PREFIX]\n"
            << "                [--metrics-out FILE] [--trace-out FILE]\n"
            << "                [--profile-out FILE] [--admin-port PORT]\n"
            << "                [--log-level trace|debug|info|warn|error|off]\n"
            << "                [--log-out FILE]\n"
            << "       neat_cli --demo   (self-contained demonstration)\n";
  std::exit(2);
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions opt;
  const auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(str_cat("missing value after ", argv[i]));
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--network") {
        opt.network_path = next_value(i);
      } else if (arg == "--trajectories") {
        opt.trajectories_path = next_value(i);
      } else if (arg == "--out") {
        opt.out_prefix = next_value(i);
      } else if (arg == "--mode") {
        const std::string mode = next_value(i);
        if (mode == "base") opt.config.mode = Mode::kBase;
        else if (mode == "flow") opt.config.mode = Mode::kFlow;
        else if (mode == "opt") opt.config.mode = Mode::kOpt;
        else usage(str_cat("unknown mode '", mode, "'"));
      } else if (arg == "--epsilon") {
        opt.config.refine.epsilon = parse_double(next_value(i));
      } else if (arg == "--min-card") {
        const std::string v = next_value(i);
        opt.config.flow.min_card = (v == "auto") ? -1.0 : parse_double(v);
      } else if (arg == "--wq") {
        opt.config.flow.wq = parse_double(next_value(i));
      } else if (arg == "--wk") {
        opt.config.flow.wk = parse_double(next_value(i));
      } else if (arg == "--wv") {
        opt.config.flow.wv = parse_double(next_value(i));
      } else if (arg == "--beta") {
        const std::string v = next_value(i);
        opt.config.flow.beta =
            (v == "inf") ? std::numeric_limits<double>::infinity() : parse_double(v);
      } else if (arg == "--threads") {
        const std::int64_t n = parse_int(next_value(i));
        if (n < 0) usage("--threads must be >= 0 (0/1 = serial)");
        opt.config.phase1_threads = static_cast<unsigned>(n);
      } else if (arg == "--refine-threads") {
        const std::int64_t n = parse_int(next_value(i));
        if (n < 0) usage("--refine-threads must be >= 0 (0/1 = serial)");
        opt.config.refine.threads = static_cast<unsigned>(n);
      } else if (arg == "--landmarks") {
        const std::int64_t n = parse_int(next_value(i));
        if (n < 1) usage("--landmarks must be >= 1");
        opt.config.refine.use_landmarks = true;
        opt.config.refine.num_landmarks = static_cast<int>(n);
      } else if (arg == "--distance-engine") {
        const std::string v = next_value(i);
        if (v == "dijkstra" || v == "alt") {
          opt.config.refine.distance_engine = DistanceEngine::kDijkstra;
          // ALT is the Dijkstra rung with landmark tables steering it.
          if (v == "alt") opt.config.refine.use_landmarks = true;
        } else if (v == "ch") {
          opt.config.refine.distance_engine = DistanceEngine::kCh;
        } else {
          usage(str_cat("unknown distance engine '", v, "' (dijkstra|alt|ch)"));
        }
      } else if (arg == "--metrics-out") {
        opt.metrics_out = next_value(i);
      } else if (arg == "--trace-out") {
        opt.trace_out = next_value(i);
      } else if (arg == "--profile-out") {
        opt.profile_out = next_value(i);
      } else if (arg == "--admin-port") {
        const std::int64_t p = parse_int(next_value(i));
        if (p < 0 || p > 65535) usage("--admin-port must be in [0, 65535]");
        opt.admin_port = static_cast<int>(p);
      } else if (arg == "--log-level") {
        const std::string v = next_value(i);
        const auto level = obs::log::parse_level(v);
        if (!level.has_value()) {
          usage(str_cat("unknown log level '", v,
                        "' (trace|debug|info|warn|error|off)"));
        }
        opt.log_level = *level;
      } else if (arg == "--log-out") {
        opt.log_out = next_value(i);
      } else if (arg == "--no-elb") {
        opt.config.refine.use_elb = false;
      } else if (arg == "--columnar") {
        opt.columnar = true;
      } else if (arg == "--demo") {
        opt.demo = true;
      } else {
        usage(str_cat("unknown argument '", arg, "'"));
      }
    } catch (const ParseError& e) {
      usage(e.what());
    }
  }
  if (!opt.demo && (opt.network_path.empty() || opt.trajectories_path.empty())) {
    usage("--network and --trajectories are required (or pass --demo)");
  }
  return opt;
}

void write_flows_csv(const roadnet::RoadNetwork& net, const Result& res,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error(str_cat("cannot open '", path, "' for writing"));
  out << "flow,final_cluster,cardinality,route_length_m,seq,segment,junction,x,y\n";
  std::vector<int> final_of(res.flow_clusters.size(), -1);
  for (std::size_t c = 0; c < res.final_clusters.size(); ++c) {
    for (const std::size_t f : res.final_clusters[c].flows) final_of[f] = static_cast<int>(c);
  }
  for (std::size_t f = 0; f < res.flow_clusters.size(); ++f) {
    const FlowCluster& flow = res.flow_clusters[f];
    for (std::size_t j = 0; j < flow.junctions.size(); ++j) {
      const Point p = net.node(flow.junctions[j]).pos;
      out << f << ',' << final_of[f] << ',' << flow.cardinality() << ','
          << format_fixed(flow.route_length, 1) << ',' << j << ','
          << (j < flow.route.size() ? std::to_string(flow.route[j].value()) : "-") << ','
          << flow.junctions[j].value() << ',' << format_fixed(p.x, 2) << ','
          << format_fixed(p.y, 2) << '\n';
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliOptions opt = parse_args(argc, argv);
    obs::log::Logger& logger = obs::log::Logger::global();
    logger.set_default_level(opt.log_level);
    if (!opt.log_out.empty() && !logger.set_output_file(opt.log_out)) {
      std::cerr << "error: cannot open '" << opt.log_out << "' for logging\n";
      return 1;
    }
    if (!opt.trace_out.empty() || opt.admin_port >= 0) {
      obs::Tracer::global().set_enabled(true);
    }
    std::unique_ptr<obs::HttpExporter> admin;
    if (opt.admin_port >= 0) {
      obs::HttpExporterOptions hopts;
      hopts.port = static_cast<std::uint16_t>(opt.admin_port);
      admin = std::make_unique<obs::HttpExporter>(obs::Registry::global(), hopts,
                                                  &obs::Tracer::global());
      std::cout << "admin: listening on http://127.0.0.1:" << admin->port()
                << " (/metrics /healthz /readyz /statusz /tracez /logz)\n";
    }

    if (opt.demo) {
      // Self-contained demonstration: generate inputs, write them next to
      // the outputs, then proceed exactly as if the user had supplied them.
      std::cout << "demo mode: generating a city and 200 trips\n";
      roadnet::CityParams params;
      params.rows = 20;
      params.cols = 20;
      params.seed = 5;
      const roadnet::RoadNetwork demo_net = roadnet::make_city(params);
      roadnet::save_network(demo_net, opt.out_prefix + "_network.csv");
      const sim::SimConfig scfg = sim::default_config(demo_net, 2, 3);
      const traj::TrajectoryDataset demo_data =
          sim::MobilitySimulator(demo_net, scfg).generate(200, 1);
      traj::save_dataset(demo_data, opt.out_prefix + "_trajectories.csv");
      opt.network_path = opt.out_prefix + "_network.csv";
      opt.trajectories_path = opt.out_prefix + "_trajectories.csv";
    }

    const roadnet::RoadNetwork net = roadnet::load_network(opt.network_path);
    std::unique_ptr<store::ColumnarTrajectoryStore> cstore;
    traj::TrajectoryDataset data;
    std::size_t n_trajectories = 0;
    if (opt.columnar) {
      cstore = std::make_unique<store::ColumnarTrajectoryStore>(opt.trajectories_path);
      n_trajectories = cstore->size();
      std::cout << "loaded " << net.segment_count() << " segments; mapped "
                << n_trajectories << " trajectories (" << cstore->num_points()
                << " points, " << cstore->bytes_mapped() << " bytes, out-of-core)\n";
    } else {
      data = traj::load_dataset(opt.trajectories_path);
      n_trajectories = data.size();
      std::cout << "loaded " << net.segment_count() << " segments, " << data.size()
                << " trajectories (" << data.total_points() << " points)\n";
    }

    // Out-of-core runs sample /proc/self so the metrics dump carries the
    // demand-paging cost of the mapped store (neat_store_page_faults_total)
    // alongside the neat_store_bytes_mapped gauge the store itself owns.
    std::unique_ptr<obs::ResourceSampler> sampler;
    if (opt.columnar) {
      sampler = std::make_unique<obs::ResourceSampler>(obs::Registry::global());
    }

    const bool profiling =
        !opt.profile_out.empty() && obs::prof::Profiler::global().start();
    if (!opt.profile_out.empty() && !profiling) {
      NEAT_LOG(kWarn, "cli").msg("profiler busy, running without --profile-out");
    }
    const NeatClusterer clusterer(net, opt.config);
    Result res;
    if (opt.columnar) {
      store::ColumnarTrajectorySource source(*cstore);
      res = clusterer.run(source);
    } else {
      res = clusterer.run(data);
    }
    if (profiling) {
      const obs::prof::Profile profile = obs::prof::Profiler::global().stop();
      std::ofstream out(opt.profile_out);
      if (!out) throw Error(str_cat("cannot open '", opt.profile_out, "' for writing"));
      out << profile.to_folded();
      std::cout << "profile written to " << opt.profile_out << " ("
                << profile.samples << " samples, "
                << format_fixed(100.0 * profile.symbolized_fraction(), 1)
                << "% symbolized; render: python3 tools/fold2svg.py "
                << opt.profile_out << " profile.svg)\n";
    }
    eval::write_report(std::cout, net, res, n_trajectories);

    if (opt.config.mode != Mode::kBase) {
      const std::string flows_path = opt.out_prefix + "_flows.csv";
      write_flows_csv(net, res, flows_path);
      std::cout << "flow clusters written to " << flows_path << '\n';
    }

    if (sampler) sampler->sample_now();  // final fault/RSS deltas
    if (!opt.metrics_out.empty()) {
      std::ofstream out(opt.metrics_out);
      if (!out) throw Error(str_cat("cannot open '", opt.metrics_out, "' for writing"));
      out << obs::Registry::global().to_prometheus();
      std::cout << "metrics written to " << opt.metrics_out << '\n';
    }
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out);
      if (!out) throw Error(str_cat("cannot open '", opt.trace_out, "' for writing"));
      out << obs::Tracer::global().to_chrome_json();
      std::cout << "trace written to " << opt.trace_out
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
    return 0;
  } catch (const Error& e) {
    NEAT_LOG(kError, "cli").msg("run failed").kv("reason", e.what());
    obs::log::Logger::global().flush();
    return 1;
  }
}
