// Latency of the serving stack, over HTTP and in process.
//
// Builds one clustered city snapshot and measures it two ways:
//   HTTP     — the full public query plane in-process (serve::QueryEngine,
//              sim::TripPlanner, net::QueryService on a net::HttpServer),
//              driven over loopback by connect-per-request clients, exactly
//              the path external traffic takes (socket, parse, validate,
//              query, serialize); client-observed per-endpoint p50/p99 and
//              throughput;
//   readers  — query threads calling serve::QueryEngine directly, under two
//              conditions: idle (one static snapshot, no publishes) and
//              publish-churn (the writer republishes a fresh snapshot
//              version continuously, RCU churn); each reader times its own
//              engine calls into one shared histogram, giving p50/p99 and
//              q/s.
// Every row goes to BENCH_serve.json for the CI performance-trajectory gate
// (tools/bench_diff.py).
//
// Two checks (exit 1 on either miss). The SLO: /v1/nearest p99 < 5 ms while
// the mixed HTTP workload sustains >= 1000 req/s in total, with no
// unexpected failures. Non-blocking publication: the publish-churn p99
// stays within 5x the idle p99. Latencies come from log2-bucket
// histograms (obs::Log2Histogram), so the percentiles are conservative
// bucket upper edges.
//
// Honors NEAT_BENCH_REPEATS: each condition runs that many times and every
// reported metric is the median, so one noise spike cannot fail CI.
//
//   $ ./serve_http_latency [threads] [seconds_per_run]
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/clusterer.h"
#include "eval/experiments.h"
#include "eval/table.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/query_service.h"
#include "obs/registry.h"
#include "roadnet/generators.h"
#include "serve/query_engine.h"
#include "sim/mobility_simulator.h"
#include "sim/trip_planner.h"

using namespace neat;

namespace {

constexpr const char* kEndpoints[4] = {"nearest", "segment", "topk", "route"};

/// Client-observed numbers of one endpoint over one measured run.
struct EndpointRun {
  double p50_s{0.0};
  double p99_s{0.0};
  double rps{0.0};
  std::uint64_t requests{0};
  std::uint64_t failures{0};  ///< Answers other than 200/404.
};

struct Run {
  EndpointRun endpoint[4];
  double total_rps{0.0};
  std::uint64_t total_requests{0};
};

/// One measured run: `threads` clients hammer the mixed workload for
/// `seconds`, one TCP connection per request, latencies timed around the
/// whole exchange (connect + request + response).
Run run_load(const roadnet::RoadNetwork& net, const serve::QueryEngine& engine,
             unsigned threads, double seconds) {
  obs::Registry registry;
  sim::TripPlanner planner(net, roadnet::Metric::kDistance);
  net::QueryService service(net, engine, &planner, registry);
  net::HttpServerOptions sopts;
  sopts.worker_threads = std::max(2u, threads);
  sopts.max_pending_connections = 4 * std::max(1u, threads);
  sopts.registry = &registry;
  net::HttpServer server(sopts);
  service.register_routes(server);
  server.start();

  const roadnet::Bounds bb = net.bounding_box();
  obs::Log2Histogram latency[4];  // wait-free: shared by every client
  std::atomic<std::uint64_t> requests[4] = {};
  std::atomic<std::uint64_t> failures[4] = {};

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(42 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const Point p{rng.uniform(bb.min.x, bb.max.x),
                      rng.uniform(bb.min.y, bb.max.y)};
        const std::string targets[4] = {
            str_cat("/v1/nearest?x=", format_fixed(p.x, 1), "&y=",
                    format_fixed(p.y, 1), "&radius=500"),
            str_cat("/v1/segment?sid=",
                    rng.uniform_int(0, static_cast<int>(net.segment_count()) - 1)),
            "/v1/topk?k=5",
            str_cat("/v1/route?from=",
                    rng.uniform_int(0, static_cast<int>(net.node_count()) - 1),
                    "&to=",
                    rng.uniform_int(0, static_cast<int>(net.node_count()) - 1)),
        };
        for (int e = 0; e < 4; ++e) {
          const Stopwatch req;
          const net::HttpResult r = net::http_get(server.port(), targets[e]);
          const double s = req.elapsed_seconds();
          requests[e].fetch_add(1, std::memory_order_relaxed);
          // 404 is a correct answer under a random workload (no flow in the
          // radius, one-way dead end); anything else non-200 is a failure.
          if (r.code != 200 && r.code != 404) {
            failures[e].fetch_add(1, std::memory_order_relaxed);
          }
          latency[e].record(s);
        }
      }
    });
  }

  const Stopwatch wall;
  while (wall.elapsed_seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (auto& c : clients) c.join();
  const double elapsed = wall.elapsed_seconds();

  Run out;
  for (int e = 0; e < 4; ++e) {
    out.endpoint[e].p50_s = latency[e].quantile_seconds(0.5);
    out.endpoint[e].p99_s = latency[e].quantile_seconds(0.99);
    out.endpoint[e].requests = requests[e].load();
    out.endpoint[e].failures = failures[e].load();
    out.endpoint[e].rps = static_cast<double>(requests[e].load()) / elapsed;
    out.total_requests += requests[e].load();
  }
  out.total_rps = static_cast<double>(out.total_requests) / elapsed;
  return out;
}

/// Reader-side numbers of one in-process run.
struct ReadRun {
  double qps{0.0};
  double p50_s{0.0};
  double p99_s{0.0};
  std::uint64_t queries{0};
  std::uint64_t publishes{0};
};

/// One in-process run: `threads` readers run a mixed query workload for
/// `seconds` against a fresh store holding `snapshot`. With `publish`, the
/// main thread meanwhile republishes the same flows under a fresh version
/// as fast as it can.
ReadRun run_readers(const roadnet::RoadNetwork& net, const Result& res,
                    const std::shared_ptr<const serve::ClusterSnapshot>& snapshot,
                    unsigned threads, double seconds, bool publish) {
  serve::SnapshotStore store;
  std::uint64_t version = snapshot->version();
  store.publish(snapshot);
  const serve::QueryEngine engine(net, store);
  const roadnet::Bounds bb = net.bounding_box();
  obs::Log2Histogram latency;  // one observation per engine call

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(42 + t);
      const auto timed = [&latency](auto&& query) {
        const Stopwatch watch;
        (void)query();
        latency.record(watch.elapsed_seconds());
      };
      while (!stop.load(std::memory_order_acquire)) {
        const Point p{rng.uniform(bb.min.x, bb.max.x), rng.uniform(bb.min.y, bb.max.y)};
        timed([&] { return engine.nearest_flow(p, 400.0); });
        const auto sid = SegmentId(static_cast<std::int32_t>(
            rng.uniform_int(0, static_cast<int>(net.segment_count()) - 1)));
        timed([&] { return engine.flows_on_segment(sid); });
        timed([&] { return engine.top_k_flows(5); });
      }
    });
  }

  ReadRun out;
  const Stopwatch wall;
  if (publish) {
    while (wall.elapsed_seconds() < seconds) {
      store.publish(
          serve::ClusterSnapshot::build(net, res.flow_clusters, res.final_clusters, ++version));
      ++out.publishes;
    }
  } else {
    while (wall.elapsed_seconds() < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  const double elapsed = wall.elapsed_seconds();

  out.queries = latency.count();
  out.qps = static_cast<double>(out.queries) / elapsed;
  out.p50_s = latency.quantile_seconds(0.50);
  out.p99_s = latency.quantile_seconds(0.99);
  return out;
}

/// Median over `runs` of the value `pick` reads from each.
template <typename R, typename Pick>
double median_of(const std::vector<R>& runs, Pick pick) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const R& r : runs) values.push_back(static_cast<double>(pick(r)));
  return bench::median(values);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 1.5;

  // One servable clustering result, behind the HTTP edge and in process.
  roadnet::CityParams params;
  params.rows = 22;
  params.cols = 22;
  params.seed = 7;
  const roadnet::RoadNetwork net = roadnet::make_city(params);
  const sim::SimConfig sim_cfg = sim::default_config(net, 2, 3);
  const traj::TrajectoryDataset data =
      sim::MobilitySimulator(net, sim_cfg).generate(400, 31);
  Config cfg;
  cfg.refine.epsilon = 2000.0;
  const Result res = NeatClusterer(net, cfg).run(data);
  const std::shared_ptr<const serve::ClusterSnapshot> snapshot =
      serve::ClusterSnapshot::build(net, res.flow_clusters, res.final_clusters, 1);
  serve::SnapshotStore store;
  store.publish(snapshot);
  const serve::QueryEngine engine(net, store);
  std::cout << "workload: " << net.segment_count() << " segments, "
            << res.flow_clusters.size() << " flows, " << threads
            << " client/reader threads, " << seconds << " s per run, "
            << bench::repeats() << " repeat(s)\n\n";

  // NEAT_BENCH_REPEATS measured runs per condition; every reported number
  // is the median. Idle and churn alternate, so both see the same host.
  std::vector<Run> runs;
  for (int r = 0; r < bench::repeats(); ++r) {
    runs.push_back(run_load(net, engine, threads, seconds));
  }
  std::vector<ReadRun> idle_runs;
  std::vector<ReadRun> churn_runs;
  for (int r = 0; r < bench::repeats(); ++r) {
    idle_runs.push_back(run_readers(net, res, snapshot, threads, seconds, false));
    churn_runs.push_back(run_readers(net, res, snapshot, threads, seconds, true));
  }

  eval::TextTable table({"endpoint", "requests", "req/s", "p50 us", "p99 us",
                         "failures"});
  bench::BenchJson json("serve", 1.0, 1.0);
  const auto us = [](double s) { return format_fixed(s * 1e6, 1); };
  double nearest_p99 = 0.0;
  std::uint64_t total_failures = 0;
  for (int e = 0; e < 4; ++e) {
    const double p50 = median_of(runs, [e](const Run& r) { return r.endpoint[e].p50_s; });
    const double p99 = median_of(runs, [e](const Run& r) { return r.endpoint[e].p99_s; });
    const double rps = median_of(runs, [e](const Run& r) { return r.endpoint[e].rps; });
    const double requests = median_of(runs, [e](const Run& r) { return r.endpoint[e].requests; });
    const double failures = median_of(runs, [e](const Run& r) { return r.endpoint[e].failures; });
    if (e == 0) nearest_p99 = p99;
    total_failures += static_cast<std::uint64_t>(failures);
    table.add_row({kEndpoints[e], format_fixed(requests, 0), format_fixed(rps, 0),
                   us(p50), us(p99), format_fixed(failures, 0)});
    json.add_row(kEndpoints[e], {{"p50_s", p50},
                                 {"p99_s", p99},
                                 {"rps", rps},
                                 {"requests", requests}});
  }
  const double total_rps = median_of(runs, [](const Run& r) { return r.total_rps; });
  const double total_requests = median_of(runs, [](const Run& r) { return r.total_requests; });
  table.add_row({"total", format_fixed(total_requests, 0), format_fixed(total_rps, 0),
                 "-", "-", "-"});
  json.add_row("total", {{"rps", total_rps}, {"requests", total_requests}});
  table.print(std::cout);
  table.write_csv(eval::results_dir() + "/serve_http_latency.csv");

  eval::TextTable readers({"condition", "queries", "q/s", "p50 us", "p99 us", "publishes"});
  // Adds one in-process condition's medians to both outputs; returns its p99.
  const auto report = [&](const char* name, const std::vector<ReadRun>& rr) {
    const double p50 = median_of(rr, [](const ReadRun& r) { return r.p50_s; });
    const double p99 = median_of(rr, [](const ReadRun& r) { return r.p99_s; });
    const double qps = median_of(rr, [](const ReadRun& r) { return r.qps; });
    const double queries = median_of(rr, [](const ReadRun& r) { return r.queries; });
    const double publishes = median_of(rr, [](const ReadRun& r) { return r.publishes; });
    readers.add_row({name, format_fixed(queries, 0), format_fixed(qps, 0), us(p50), us(p99),
                     format_fixed(publishes, 0)});
    json.add_row(name, {{"p50_s", p50},
                        {"p99_s", p99},
                        {"qps", qps},
                        {"queries", queries},
                        {"publishes", publishes}});
    return p99;
  };
  const double idle_p99 = report("idle", idle_runs);
  const double churn_p99 = report("publish-churn", churn_runs);
  std::cout << '\n';
  readers.print(std::cout);
  readers.write_csv(eval::results_dir() + "/serve_publish_churn.csv");
  const std::string json_path = eval::results_dir() + "/BENCH_serve.json";
  json.write(json_path);
  std::cout << "\nwrote " << json_path << '\n';

  // The SLO the query plane ships under. Percentiles are log2-bucket upper
  // edges, so this is a conservative check.
  const bool p99_ok = nearest_p99 < 0.005;
  const bool rps_ok = total_rps >= 1000.0;
  const bool clean = total_failures == 0;
  std::cout << "SLO: /v1/nearest p99 " << us(nearest_p99) << " us (limit 5000 us) — "
            << (p99_ok ? "OK" : "EXCEEDED") << "; total " << format_fixed(total_rps, 0)
            << " req/s (floor 1000) — " << (rps_ok ? "OK" : "MISSED")
            << "; unexpected failures " << total_failures << " — "
            << (clean ? "OK" : "FAILED") << '\n';

  // The serving design claims readers never block on a publish.
  const double churn_limit = 5.0 * idle_p99;
  const bool churn_ok = churn_p99 <= churn_limit;
  std::cout << "publish does not block readers: p99 under churn " << us(churn_p99)
            << " us vs limit " << us(churn_limit) << " us (5x idle p99) — "
            << (churn_ok ? "OK" : "EXCEEDED") << '\n';
  return p99_ok && rps_ok && clean && churn_ok ? 0 : 1;
}
