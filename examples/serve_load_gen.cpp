// Load generator for the serving subsystem: N client threads fire queries
// at a QueryEngine while a feeder thread keeps uploading trajectory batches
// through the IngestService, so snapshots are republished under live read
// traffic. Prints per-run throughput. The process-wide registry carries
// every serving number, each counted once by its owner: the ingest families
// (neat_serve_*, IngestService), per-endpoint handler latency
// (neat_net_request_seconds, QueryService) and requests by path and code
// (neat_net_requests_total, HttpServer); the admin plane's /metrics serves
// it.
//
// Two modes:
//   in-process (default)  clients call the QueryEngine directly — measures
//                         the engine itself, no serialization or sockets;
//   --http                the process hosts its own net::HttpServer with the
//                         /v1/* QueryService and the clients talk to it over
//                         loopback HTTP (one connection per request, exactly
//                         like external traffic), reporting client-observed
//                         per-endpoint latency quantiles.
//
// --admin-port additionally serves the admin plane (/metrics, /statusz,
// /profilez, ...) on 127.0.0.1:PORT for the duration of the run — curling
// /profilez?seconds=1 while the load runs yields a folded CPU profile of
// the whole serving stack under pressure.
//
//   $ ./serve_load_gen [--http] [--admin-port PORT]
//                      [--log-level LEVEL] [--log-out FILE]
//                      [query_threads] [batches] [trips_per_batch]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "net/admin_routes.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/query_service.h"
#include "obs/log/log.h"
#include "obs/registry.h"
#include "roadnet/generators.h"
#include "serve/ingest_service.h"
#include "serve/query_engine.h"
#include "sim/mobility_simulator.h"
#include "sim/trip_planner.h"

using namespace neat;

namespace {

/// Client-side latency + count of one /v1/* endpoint under load. Every
/// member is wait-free, so many client threads record without a lock.
struct EndpointStats {
  const char* target;
  obs::Log2Histogram latency;
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> failures{0};  ///< Non-2xx/404 answers.

  void record(double seconds, int code) {
    requests.fetch_add(1, std::memory_order_relaxed);
    // 404s (empty radius, one-way dead ends) are correct answers under a
    // random workload; anything else non-200 is a failure worth surfacing.
    if (code != 200 && code != 404) failures.fetch_add(1, std::memory_order_relaxed);
    latency.record(seconds);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool http_mode = false;
  int admin_port = -1;  // -1 = no admin server; 0 = ephemeral port.
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--http") {
      http_mode = true;
    } else if (arg == "--admin-port") {
      if (i + 1 >= argc) {
        std::cerr << "error: missing value after --admin-port\n";
        return 2;
      }
      admin_port = std::atoi(argv[++i]);
      if (admin_port < 0 || admin_port > 65535) {
        std::cerr << "error: --admin-port must be in [0, 65535]\n";
        return 2;
      }
    } else if (arg == "--log-level") {
      if (i + 1 >= argc) {
        std::cerr << "error: missing value after --log-level\n";
        return 2;
      }
      const auto level = obs::log::parse_level(argv[++i]);
      if (!level.has_value()) {
        std::cerr << "error: unknown log level '" << argv[i]
                  << "' (trace|debug|info|warn|error|off)\n";
        return 2;
      }
      obs::log::Logger::global().set_default_level(*level);
    } else if (arg == "--log-out") {
      if (i + 1 >= argc) {
        std::cerr << "error: missing value after --log-out\n";
        return 2;
      }
      if (!obs::log::Logger::global().set_output_file(argv[++i])) {
        std::cerr << "error: cannot open '" << argv[i] << "' for logging\n";
        return 2;
      }
    } else {
      positional.push_back(arg);
    }
  }
  const unsigned query_threads =
      positional.size() > 0 ? static_cast<unsigned>(std::atoi(positional[0].c_str())) : 4;
  const std::size_t batches =
      positional.size() > 1 ? static_cast<std::size_t>(std::atoi(positional[1].c_str())) : 5;
  const std::size_t trips =
      positional.size() > 2 ? static_cast<std::size_t>(std::atoi(positional[2].c_str())) : 80;

  roadnet::CityParams params;
  params.rows = 20;
  params.cols = 20;
  params.seed = 11;
  const roadnet::RoadNetwork net = roadnet::make_city(params);
  const roadnet::Bounds bb = net.bounding_box();

  Config cfg;
  cfg.refine.epsilon = 1500.0;
  // The process-wide registry behind the ingest path, the query edge and
  // the admin plane, so /metrics carries every serving family next to the
  // process metadata (neat_build_info, neat_process_start_time_seconds).
  obs::Registry& registry = obs::Registry::global();
  serve::SnapshotStore store;
  serve::IngestService ingest(net, cfg, store, registry);
  const serve::QueryEngine engine(net, store);

  // The self-hosted HTTP edge of --http mode (idle otherwise). Ephemeral
  // port, worker pool sized to the client count so the clients, not the
  // server, are the bottleneck being exercised.
  sim::TripPlanner planner(net, roadnet::Metric::kDistance);
  net::QueryService service(net, engine, &planner, registry);
  net::HttpServerOptions sopts;
  sopts.worker_threads = std::max(2u, query_threads);
  sopts.max_pending_connections = 4 * std::max(1u, query_threads);
  sopts.registry = &registry;
  net::HttpServer server(sopts);
  service.register_routes(server);
  if (http_mode) {
    server.start();
    std::cout << "http edge: listening on 127.0.0.1:" << server.port() << '\n';
  }

  // Optional admin plane: lets an operator (or CI) hit /profilez while the
  // load is in flight.
  std::unique_ptr<net::HttpServer> admin;
  if (admin_port >= 0) {
    net::HttpServerOptions hopts;
    hopts.port = static_cast<std::uint16_t>(admin_port);
    hopts.registry = &registry;
    admin = std::make_unique<net::HttpServer>(hopts);
    net::register_admin_routes(*admin, registry);
    admin->start();
    // The machine-readable line smoke tests grep for the bound port.
    std::cout << "admin: listening on http://127.0.0.1:" << admin->port()
              << " (/metrics /healthz /readyz /statusz /tracez /profilez /logz)\n"
              << std::flush;
  }

  // Feeder: upload all batches, then raise the done flag.
  std::atomic<bool> done{false};
  const sim::SimConfig sim_cfg = sim::default_config(net, 2, 3);
  const sim::MobilitySimulator simulator(net, sim_cfg);
  std::thread feeder([&] {
    std::int64_t next_id = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      const traj::TrajectoryDataset raw =
          simulator.generate(trips, 900 + static_cast<std::uint64_t>(b));
      traj::TrajectoryDataset batch;
      for (std::size_t i = 0; i < raw.size(); ++i) {
        batch.add(traj::Trajectory(TrajectoryId(next_id++), raw[i].points()));
      }
      ingest.submit(std::move(batch));
    }
    ingest.flush();
    done.store(true, std::memory_order_release);
  });

  // Clients: mixed query workload until the feeder finishes.
  EndpointStats stats[4] = {
      {"/v1/nearest", {}, {}, {}},
      {"/v1/segment", {}, {}, {}},
      {"/v1/topk", {}, {}, {}},
      {"/v1/route", {}, {}, {}},
  };
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  const Stopwatch wall;
  for (unsigned t = 0; t < query_threads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(1000 + t);
      // Wait for the first publish: before it the service answers 503
      // no_snapshot by contract, which would show up here as failures.
      while (store.version() == 0 && !done.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      while (!done.load(std::memory_order_acquire)) {
        const Point p{rng.uniform(bb.min.x, bb.max.x), rng.uniform(bb.min.y, bb.max.y)};
        const auto sid = rng.uniform_int(0, static_cast<int>(net.segment_count()) - 1);
        if (http_mode) {
          const std::string targets[4] = {
              str_cat("/v1/nearest?x=", format_fixed(p.x, 1), "&y=",
                      format_fixed(p.y, 1), "&radius=500"),
              str_cat("/v1/segment?sid=", sid),
              "/v1/topk?k=3",
              str_cat("/v1/route?from=",
                      rng.uniform_int(0, static_cast<int>(net.node_count()) - 1),
                      "&to=",
                      rng.uniform_int(0, static_cast<int>(net.node_count()) - 1)),
          };
          for (int e = 0; e < 4; ++e) {
            const Stopwatch req;
            const net::HttpResult r = net::http_get(server.port(), targets[e]);
            stats[e].record(req.elapsed_seconds(), r.code);
          }
          answered.fetch_add(4, std::memory_order_relaxed);
        } else {
          (void)engine.nearest_flow(p, 500.0);
          (void)engine.top_k_flows(3);
          (void)engine.flows_on_segment(SegmentId(static_cast<std::int32_t>(sid)));
          answered.fetch_add(3, std::memory_order_relaxed);
        }
      }
    });
  }
  feeder.join();
  for (auto& c : clients) c.join();
  const double secs = wall.elapsed_seconds();

  std::cout << query_threads << " query threads, " << batches << " batches of " << trips
            << " trips" << (http_mode ? " [HTTP mode]" : "") << '\n'
            << answered.load() << " queries in " << secs << " s ("
            << static_cast<std::uint64_t>(answered.load() / secs) << " q/s), final snapshot v"
            << store.version() << '\n';
  if (http_mode) {
    for (EndpointStats& s : stats) {
      std::cout << s.target << ": " << s.requests.load() << " requests, "
                << s.failures.load() << " failures, p50 "
                << format_fixed(s.latency.quantile_seconds(0.5) * 1e6, 1)
                << " us, p99 " << format_fixed(s.latency.quantile_seconds(0.99) * 1e6, 1)
                << " us\n";
    }
  }
  return 0;
}
