// Simulation of the paper's 3-tier NEAT system architecture (§II-C):
// "Each client node acts as a mobile device which records its locations,
// sends its trajectories to a NEAT server and makes requests to the server
// to get trajectory clustering results ... NEAT server also distributes
// trajectory datasets across multiple nodes in a cluster. These data nodes
// can perform some data preprocessing tasks."
//
// This example runs the whole loop in-process on the real serving subsystem
// (src/serve/):
//   clients    -> upload trip batches through IngestService (bounded queue)
//   server     -> background worker clusters each batch incrementally and
//                 publishes an immutable, versioned ClusterSnapshot
//   clients    -> query the QueryEngine ("flows near me", "what runs on this
//                 road", "busiest corridors") against the live snapshot
//   operations -> scrape the live admin plane over HTTP: /metrics (Prometheus,
//                 process gauges sampled at each scrape), /healthz, /readyz
//                 (503 until the first snapshot), /statusz (build + snapshot
//                 + backlog JSON) and /tracez (recent spans)
// Every upload and query carries a request-correlation trace_id, so one
// /tracez (or Perfetto) search follows one request end-to-end. The final
// snapshot is also persisted with core/result_io, the durable half of the
// serving story.
//
//   $ ./neat_server_sim --admin-port 9464 --linger-s 60
//   $ curl localhost:9464/metrics
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "common/error.h"
#include "common/string_util.h"
#include "core/result_io.h"
#include "eval/geojson.h"
#include "net/admin_routes.h"
#include "net/http_server.h"
#include "net/query_service.h"
#include "obs/log/log.h"
#include "obs/prof/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "roadnet/generators.h"
#include "roadnet/landmark_oracle.h"
#include "serve/ingest_service.h"
#include "serve/query_engine.h"
#include "sim/mobility_simulator.h"

using namespace neat;

namespace {

struct SimOptions {
  int admin_port{-1};        ///< -1 = no admin server; 0 = ephemeral port.
  int query_port{-1};        ///< -1 = no public query plane; 0 = ephemeral.
  int linger_s{0};           ///< Keep serving this long after the workload.
  int slow_ms{500};          ///< Slow-request log threshold; 0 disables.
  std::string profile_out;   ///< Folded CPU profile file ("" = profiler off).
  std::string log_out;       ///< JSON log lines file ("" = stderr).
  obs::log::Level log_level{obs::log::Level::kInfo};
  int landmarks{0};          ///< Phase 3 landmark count for ingest (0 = off).
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n\n"
            << "usage: neat_server_sim [--admin-port PORT] [--query-port PORT]\n"
            << "                       [--linger-s SECONDS] [--landmarks K]\n"
            << "                       [--profile-out FILE]\n"
            << "  --admin-port PORT       serve /metrics, /healthz, /readyz, /statusz\n"
            << "                          and /tracez on 127.0.0.1:PORT (0 = pick a\n"
            << "                          free port; omit for no admin server)\n"
            << "  --query-port PORT       serve the public query plane /v1/nearest,\n"
            << "                          /v1/segment, /v1/topk and /v1/route on\n"
            << "                          127.0.0.1:PORT (0 = pick a free port; omit\n"
            << "                          for no query server)\n"
            << "  --linger-s SECONDS      keep the server up after the simulated\n"
            << "                          workload so it can be scraped (default 0)\n"
            << "  --landmarks K           landmark (ALT) tables for the ingest\n"
            << "                          re-clustering's Phase 3, 1-64 (default:\n"
            << "                          none, plain bounded Dijkstra)\n"
            << "  --profile-out FILE      sample the CPU across the simulated\n"
            << "                          workload and write the folded profile\n"
            << "                          (render: python3 tools/fold2svg.py)\n"
            << "  --log-level LEVEL       structured log level: trace|debug|info|\n"
            << "                          warn|error|off (default info)\n"
            << "  --log-out FILE          write JSON log lines to FILE instead of\n"
            << "                          stderr\n"
            << "  --slow-ms MS            slow-request log threshold on the query\n"
            << "                          plane (default 500; 0 disables)\n";
  std::exit(2);
}

SimOptions parse_args(int argc, char** argv) {
  SimOptions opt;
  const auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(str_cat("missing value after ", argv[i]));
    return argv[++i];
  };
  // The next value as an integer in [lo, hi], checked before any narrowing
  // cast; anything else is a usage error.
  const auto next_int = [&](int& i, std::int64_t lo, std::int64_t hi) {
    const std::string flag = argv[i];
    const std::int64_t v = parse_int(next_value(i));
    if (v < lo || v > hi) usage(str_cat(flag, " must be in [", lo, ", ", hi, "]"));
    return v;
  };
  constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--admin-port") {
        opt.admin_port = static_cast<int>(next_int(i, 0, 65535));
      } else if (arg == "--query-port") {
        opt.query_port = static_cast<int>(next_int(i, 0, 65535));
      } else if (arg == "--linger-s") {
        opt.linger_s = static_cast<int>(next_int(i, 0, kMaxInt));
      } else if (arg == "--profile-out") {
        opt.profile_out = next_value(i);
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
      } else if (arg == "--slow-ms") {
        opt.slow_ms = static_cast<int>(next_int(i, 0, kMaxInt));
      } else if (arg == "--landmarks") {
        opt.landmarks = static_cast<int>(next_int(i, 1, roadnet::LandmarkOracle::kMaxLandmarks));
      } else {
        usage(str_cat("unknown argument '", arg, "'"));
      }
    } catch (const ParseError& e) {
      usage(e.what());
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const SimOptions opt = parse_args(argc, argv);
  obs::log::Logger& logger = obs::log::Logger::global();
  logger.set_default_level(opt.log_level);
  if (!opt.log_out.empty() && !logger.set_output_file(opt.log_out)) {
    std::cerr << "error: cannot open '" << opt.log_out << "' for logging\n";
    return 1;
  }
  obs::Tracer::global().set_enabled(true);

  // The shared map every tier works against.
  roadnet::CityParams params;
  params.rows = 26;
  params.cols = 26;
  params.spacing_m = 135.0;
  params.seed = 2;
  const roadnet::RoadNetwork net = roadnet::make_city(params);
  std::cout << "map: " << net.segment_count() << " segments\n";

  // --- the serving stack: snapshot store + ingest + query engine. The
  // ingest families share the global registry with the pipeline's own
  // neat_core_* metrics, so one /metrics scrape sees the whole process.
  Config cfg;
  cfg.refine.landmarks = opt.landmarks;
  cfg.refine.epsilon = 2000.0;
  cfg.phase1_threads = 2;
  serve::SnapshotStore store;
  serve::IngestOptions iopts;
  iopts.queue_capacity = 4;
  serve::IngestService ingest(net, cfg, store, obs::Registry::global(), iopts);
  const serve::QueryEngine engine(net, store);

  // --- the live observability plane: the HTTP admin routes, whose /metrics
  // samples the process's resources at each scrape.
  std::unique_ptr<net::HttpServer> admin;
  if (opt.admin_port >= 0) {
    net::HttpServerOptions hopts;
    hopts.port = static_cast<std::uint16_t>(opt.admin_port);
    hopts.registry = &obs::Registry::global();
    admin = std::make_unique<net::HttpServer>(hopts);
    net::AdminRouteOptions aopts;
    aopts.tracer = &obs::Tracer::global();
    aopts.ready = [&store] { return store.version() > 0; };
    aopts.status_fields = [&store, &ingest] {
      return str_cat("\"snapshot_version\":", store.version(),
                     ",\"snapshot_age_s\":", format_fixed(store.age_seconds(), 3),
                     ",\"ingest_queue_depth\":", ingest.queue_depth());
    };
    net::register_admin_routes(*admin, obs::Registry::global(), aopts);
    try {
      admin->start();
    } catch (const Error& e) {
      NEAT_LOG(kError, "sim").msg("admin server failed to start").kv("reason", e.what());
      logger.flush();
      return 1;
    }
    // The machine-readable line smoke tests grep for the bound port.
    std::cout << "admin: listening on http://127.0.0.1:" << admin->port()
              << " (/metrics /healthz /readyz /statusz /tracez /logz)\n";
  }

  // --- the public query plane: the same QueryEngine the in-process tier-3
  // clients use, exposed as JSON /v1/* endpoints, plus route planning over
  // the road network (per-destination reverse shortest-path trees).
  // Declaration order matters: the server holds threads calling into the
  // service and planner, so it is declared last and torn down first.
  std::unique_ptr<sim::TripPlanner> planner;
  std::unique_ptr<net::QueryService> query_service;
  std::unique_ptr<net::HttpServer> query_server;
  if (opt.query_port >= 0) {
    planner = std::make_unique<sim::TripPlanner>(net, roadnet::Metric::kDistance);
    net::QueryServiceOptions sopts_q;
    sopts_q.slow_request_seconds = static_cast<double>(opt.slow_ms) / 1e3;
    query_service = std::make_unique<net::QueryService>(
        net, engine, planner.get(), obs::Registry::global(), sopts_q);
    net::HttpServerOptions qopts;
    qopts.port = static_cast<std::uint16_t>(opt.query_port);
    qopts.registry = &obs::Registry::global();
    query_server = std::make_unique<net::HttpServer>(qopts);
    query_service->register_routes(*query_server);
    try {
      query_server->start();
    } catch (const Error& e) {
      NEAT_LOG(kError, "sim").msg("query server failed to start").kv("reason", e.what());
      logger.flush();
      return 1;
    }
    // The machine-readable line smoke tests grep for the bound port.
    std::cout << "query: listening on http://127.0.0.1:" << query_server->port()
              << " (/v1/nearest /v1/segment /v1/topk /v1/route)\n";
  }

  // --- tier 1: clients record trips and upload them in batches. Each batch
  // is clustered incrementally by the background worker; a new snapshot
  // version appears after each one without ever blocking queries. Every
  // upload travels under a fresh trace_id.
  const bool profiling =
      !opt.profile_out.empty() && obs::prof::Profiler::global().start();
  if (!opt.profile_out.empty() && !profiling) {
    NEAT_LOG(kWarn, "sim").msg("profiler busy, running without --profile-out");
  }
  const sim::MobilitySimulator simulator(net, sim::default_config(net, 2, 3));
  constexpr std::size_t kBatches = 3;
  constexpr std::size_t kTripsPerBatch = 100;
  std::int64_t next_id = 0;
  std::uint64_t last_upload_trace = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const traj::TrajectoryDataset raw =
        simulator.generate(kTripsPerBatch, 77 + static_cast<std::uint64_t>(b));
    traj::TrajectoryDataset batch;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      batch.add(traj::Trajectory(TrajectoryId(next_id++), raw[i].points()));
    }
    ingest.submit(std::move(batch), 0, &last_upload_trace);
    std::cout << "client upload: batch " << b + 1 << " (" << kTripsPerBatch
              << " trips) queued, trace_id=" << last_upload_trace << '\n';
  }
  ingest.flush();
  const auto snap = engine.snapshot();
  std::cout << "server: snapshot v" << snap->version() << " live — "
            << snap->flows().size() << " flows, " << snap->final_clusters().size()
            << " clusters\n";

  // --- tier 3: client queries against the live snapshot. The first query
  // reuses the last upload's trace_id: its ingest span and query span now
  // carry the same correlation id, the end-to-end story /tracez tells.
  const roadnet::Bounds bb = net.bounding_box();
  const Point client{(bb.min.x + bb.max.x) / 2, (bb.min.y + bb.max.y) / 2};
  if (const auto hit = engine.nearest_flow(client, 1500.0, last_upload_trace)) {
    std::cout << "client at city center [trace_id=" << hit->trace_id
              << "]: nearest flow #" << hit->flow << " (" << hit->cardinality
              << " trips) passes " << hit->distance_m << " m away on segment "
              << hit->segment << '\n';
    const serve::SegmentFlows on_seg = engine.flows_on_segment(hit->segment);
    std::cout << "that road carries " << on_seg.flows.size()
              << " flow(s) [trace_id=" << on_seg.trace_id << "]\n";
  } else {
    std::cout << "client at city center: no flow within 1500 m\n";
  }
  const serve::TopFlows top = engine.top_k_flows(5);
  std::cout << "busiest corridors (top " << top.flows.size()
            << ", trace_id=" << top.trace_id << "):\n";
  for (const serve::RankedFlow& f : top.flows) {
    std::cout << "  flow #" << f.flow << ": " << f.cardinality << " trips over "
              << f.route_length_m << " m (cluster " << f.final_cluster << ")\n";
  }

  if (profiling) {
    const obs::prof::Profile profile = obs::prof::Profiler::global().stop();
    std::ofstream out(opt.profile_out);
    if (!out) {
      NEAT_LOG(kError, "sim")
          .msg("cannot open profile output file")
          .kv("path", opt.profile_out);
      logger.flush();
      return 1;
    }
    out << profile.to_folded();
    std::cout << "profile written to " << opt.profile_out << " ("
              << profile.samples << " samples, "
              << format_fixed(100.0 * profile.symbolized_fraction(), 1)
              << "% symbolized; render: python3 tools/fold2svg.py "
              << opt.profile_out << " profile.svg)\n";
  }

  // --- durability: persist the served snapshot and a GeoJSON payload any
  // map client could render.
  std::filesystem::create_directories("server_out");
  const ClusteringSnapshot persisted{snap->flows(), snap->final_clusters()};
  save_snapshot(persisted, "server_out/snapshot.csv");
  const std::string geojson =
      eval::flows_to_geojson(net, snap->flows(), &snap->final_clusters());
  std::ofstream("server_out/flows.geojson") << geojson;
  std::cout << "server_out/snapshot.csv and flows.geojson written ("
            << geojson.size() << " bytes of GeoJSON)\n";

  if ((admin != nullptr || query_server != nullptr) && opt.linger_s > 0) {
    std::cout << "lingering " << opt.linger_s << "s for scrapes...\n" << std::flush;
    std::this_thread::sleep_for(std::chrono::seconds(opt.linger_s));
  }
  return 0;
}
