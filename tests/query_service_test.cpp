// Tests for the public /v1/* query plane (src/net/query_service.*).
//
// The response bodies of all five endpoints are pinned by golden JSON files
// under tests/data/: the wire format is a public contract, so any field
// rename, reordering or numeric-formatting drift must show up as a diff. To
// regenerate after an *intentional* schema change:
//   NEAT_REGEN_GOLDEN=1 ./query_service_test
// then review and commit the updated tests/data/query_*.golden.json.
//
// The snapshot contents are hand-built (not produced by the clusterer), so
// these goldens pin only the HTTP layer and stay untouched by pipeline
// changes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "net/http_client.h"
#include "net/http_server.h"
#include "net/query_service.h"
#include "obs/log/log.h"
#include "obs/registry.h"
#include "roadnet/builder.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "sim/trip_planner.h"
#include "test_util.h"

namespace neat::net {
namespace {

std::string data_path(const std::string& name) {
  return std::string(NEAT_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Compares `body` against the committed golden file (or rewrites it under
/// NEAT_REGEN_GOLDEN=1). Golden bodies use a fixed trace_id so they are
/// byte-deterministic.
void expect_matches_golden(const std::string& body, const std::string& name) {
  const std::string path = data_path(name);
  if (std::getenv("NEAT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << body;
    return;
  }
  EXPECT_EQ(body, read_file(path))
      << "response schema drifted from " << name
      << "; if intentional, regenerate with NEAT_REGEN_GOLDEN=1";
}

HttpRequest request(std::vector<std::pair<std::string, std::string>> params) {
  HttpRequest req;
  req.method = "GET";
  req.params = std::move(params);
  return req;
}

/// The paper's fig1 star network with three hand-built flows:
///   flow 0: S0,S1 (n0->n1->n2), 3 trajectories, final cluster 0
///   flow 1: S0,S3 (n0->n1->n4), 2 trajectories, final cluster 0
///   flow 2: S2    (n1->n3),     1 trajectory,   final cluster 1
/// published as snapshot version 7.
struct Fixture {
  roadnet::RoadNetwork net = testutil::fig1_network();
  serve::SnapshotStore store;
  serve::QueryEngine engine{net, store};
  sim::TripPlanner planner{net, roadnet::Metric::kDistance};
  obs::Registry registry;
  QueryService service{net, engine, &planner, registry};

  Fixture() { store.publish(serve::ClusterSnapshot::build(net, flows(), finals(), 7)); }

  static std::vector<FlowCluster> flows() {
    FlowCluster f0;
    f0.route = {SegmentId(0), SegmentId(1)};
    f0.junctions = {NodeId(0), NodeId(1), NodeId(2)};
    f0.participants = {TrajectoryId(1), TrajectoryId(2), TrajectoryId(3)};
    f0.route_length = 200.0;
    FlowCluster f1;
    f1.route = {SegmentId(0), SegmentId(3)};
    f1.junctions = {NodeId(0), NodeId(1), NodeId(4)};
    f1.participants = {TrajectoryId(4), TrajectoryId(5)};
    f1.route_length = 200.0;
    FlowCluster f2;
    f2.route = {SegmentId(2)};
    f2.junctions = {NodeId(1), NodeId(3)};
    f2.participants = {TrajectoryId(6)};
    f2.route_length = 100.0;
    return {f0, f1, f2};
  }

  static std::vector<FinalCluster> finals() {
    FinalCluster c0;
    c0.flows = {0, 1};
    FinalCluster c1;
    c1.flows = {2};
    return {c0, c1};
  }
};

TEST(QueryService, NearestMatchesGolden) {
  Fixture fx;
  // (50, 5) is 5 m off S0; flows 0 and 1 share S0 and the tie resolves to
  // flow 0 (higher cardinality).
  const HttpResponse r = fx.service.nearest(
      request({{"x", "50"}, {"y", "5"}, {"radius", "200"}, {"trace_id", "42"}}));
  EXPECT_EQ(r.code, 200);
  EXPECT_EQ(r.content_type, "application/json");
  expect_matches_golden(r.body, "query_nearest.golden.json");
}

TEST(QueryService, SegmentMatchesGolden) {
  Fixture fx;
  const HttpResponse r =
      fx.service.segment(request({{"sid", "0"}, {"trace_id", "42"}}));
  EXPECT_EQ(r.code, 200);
  expect_matches_golden(r.body, "query_segment.golden.json");
}

TEST(QueryService, TopkMatchesGolden) {
  Fixture fx;
  const HttpResponse r = fx.service.topk(request({{"k", "2"}, {"trace_id", "42"}}));
  EXPECT_EQ(r.code, 200);
  expect_matches_golden(r.body, "query_topk.golden.json");
}

TEST(QueryService, RouteMatchesGolden) {
  Fixture fx;
  const HttpResponse r =
      fx.service.route(request({{"from", "0"}, {"to", "2"}, {"trace_id", "42"}}));
  EXPECT_EQ(r.code, 200);
  expect_matches_golden(r.body, "query_route.golden.json");
}

TEST(QueryService, TableMatchesGolden) {
  Fixture fx;
  // All of n0's distances run through the star hub n1 (200 m), so the 150 m
  // bound turns its whole row into JSON nulls while n1's row stays finite —
  // the golden pins both the number formatting and the null convention.
  const HttpResponse r = fx.service.table(request({{"sources", "0,1"},
                                                   {"targets", "2,3,4"},
                                                   {"bound", "150"},
                                                   {"trace_id", "42"}}));
  EXPECT_EQ(r.code, 200);
  EXPECT_EQ(r.content_type, "application/json");
  expect_matches_golden(r.body, "query_table.golden.json");
}

TEST(QueryService, TableValidatesListsBoundAndSize) {
  Fixture fx;
  const auto expect_code = [](const HttpResponse& r, int code, const char* error) {
    EXPECT_EQ(r.code, code);
    EXPECT_NE(r.body.find(std::string("\"error\":\"") + error + "\""),
              std::string::npos)
        << r.body;
  };
  expect_code(fx.service.table(request({{"targets", "1"}})), 400,
              "missing_parameter");
  expect_code(fx.service.table(request({{"sources", "0"}})), 400,
              "missing_parameter");
  expect_code(fx.service.table(request({{"sources", ""}, {"targets", "1"}})), 400,
              "invalid_parameter");
  expect_code(fx.service.table(request({{"sources", "0,abc"}, {"targets", "1"}})),
              400, "invalid_parameter");
  expect_code(
      fx.service.table(request({{"sources", "0"}, {"targets", "1"}, {"bound", "0"}})),
      400, "invalid_parameter");
  expect_code(fx.service.table(
                  request({{"sources", "0"}, {"targets", "1"}, {"bound", "x"}})),
              400, "invalid_parameter");
  // Well-formed ids beyond the network answer 404, mirroring /v1/route.
  expect_code(fx.service.table(request({{"sources", "99"}, {"targets", "1"}})), 404,
              "unknown_node");
  expect_code(fx.service.table(request({{"sources", "0"}, {"targets", "0,-1"}})),
              404, "unknown_node");
}

TEST(QueryService, OversizedTableAnswers400NotATimeout) {
  // A deliberately tiny cap: the 2 x 3 request is over it, and the error
  // detail names the arithmetic so a client can right-size its batches.
  roadnet::RoadNetwork net = testutil::fig1_network();
  serve::SnapshotStore store;
  store.publish(serve::ClusterSnapshot::build(net, Fixture::flows(),
                                              Fixture::finals(), 7));
  const serve::QueryEngine engine(net, store);
  obs::Registry registry;
  QueryServiceOptions opts;
  opts.max_table_cells = 4;
  const QueryService service(net, engine, nullptr, registry, opts);

  const HttpResponse r =
      service.table(request({{"sources", "0,1"}, {"targets", "2,3,4"}}));
  EXPECT_EQ(r.code, 400);
  EXPECT_NE(r.body.find("\"error\":\"table_too_large\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("2 x 3 = 6"), std::string::npos) << r.body;
  EXPECT_EQ(service.table(request({{"sources", "0,1"}, {"targets", "2,3"}})).code,
            200);
}

TEST(QueryService, NeverPublishedStoreAnswers503NotEmpty200) {
  // Regression: before the first publish the engine's snapshot() is null and
  // every snapshot-backed endpoint must answer an operational 503 with a
  // machine-readable error — not a well-formed empty answer a client would
  // mistake for "no traffic".
  roadnet::RoadNetwork net = testutil::fig1_network();
  serve::SnapshotStore empty_store;
  const serve::QueryEngine engine(net, empty_store);
  obs::Registry registry;
  const QueryService service(net, engine, nullptr, registry);

  for (const HttpResponse& r :
       {service.nearest(request({{"x", "50"}, {"y", "5"}})),
        service.segment(request({{"sid", "0"}})),
        service.topk(request({})),
        service.table(request({{"sources", "0"}, {"targets", "1"}}))}) {
    EXPECT_EQ(r.code, 503);
    EXPECT_EQ(r.content_type, "application/json");
    EXPECT_NE(r.body.find("\"error\":\"no_snapshot\""), std::string::npos) << r.body;
  }
  // Without a planner, /v1/route is 503 too — but with its own error code.
  const HttpResponse r = service.route(request({{"from", "0"}, {"to", "2"}}));
  EXPECT_EQ(r.code, 503);
  EXPECT_NE(r.body.find("\"error\":\"route_planning_disabled\""), std::string::npos);
}

TEST(QueryService, StrictParameterValidation) {
  Fixture fx;
  const auto expect_400 = [](const HttpResponse& r, const char* error) {
    EXPECT_EQ(r.code, 400);
    EXPECT_EQ(r.content_type, "application/json");
    EXPECT_NE(r.body.find(std::string("\"error\":\"") + error + "\""),
              std::string::npos)
        << r.body;
  };
  expect_400(fx.service.nearest(request({{"y", "5"}})), "missing_parameter");
  expect_400(fx.service.nearest(request({{"x", "abc"}, {"y", "5"}})),
             "invalid_parameter");
  expect_400(fx.service.nearest(request({{"x", "nan"}, {"y", "5"}})),
             "invalid_parameter");
  expect_400(fx.service.nearest(request({{"x", "1"}, {"y", "1"}, {"radius", "0"}})),
             "invalid_parameter");
  expect_400(
      fx.service.nearest(request({{"x", "1"}, {"y", "1"}, {"radius", "20000"}})),
      "invalid_parameter");
  expect_400(fx.service.segment(request({})), "missing_parameter");
  expect_400(fx.service.segment(request({{"sid", "zero"}})), "invalid_parameter");
  expect_400(fx.service.topk(request({{"k", "0"}})), "invalid_parameter");
  expect_400(fx.service.topk(request({{"k", "1001"}})), "invalid_parameter");
  expect_400(fx.service.route(request({{"to", "2"}})), "missing_parameter");
  expect_400(fx.service.route(request({{"from", "0"}, {"to", "2.5"}})),
             "invalid_parameter");
  expect_400(fx.service.topk(request({{"trace_id", "-1"}})), "invalid_parameter");
}

TEST(QueryService, WellFormedButNonexistentAnswers404) {
  Fixture fx;
  const auto expect_404 = [](const HttpResponse& r, const char* error) {
    EXPECT_EQ(r.code, 404);
    EXPECT_NE(r.body.find(std::string("\"error\":\"") + error + "\""),
              std::string::npos)
        << r.body;
  };
  expect_404(fx.service.segment(request({{"sid", "99"}})), "unknown_segment");
  expect_404(fx.service.route(request({{"from", "99"}, {"to", "0"}})),
             "unknown_node");
  expect_404(fx.service.route(request({{"from", "0"}, {"to", "-1"}})),
             "unknown_node");
  expect_404(
      fx.service.nearest(request({{"x", "5000"}, {"y", "5000"}, {"radius", "100"}})),
      "no_flow");
}

TEST(QueryService, UnreachableRouteAnswers404) {
  // Two disconnected islands: 0-1 and 2-3.
  roadnet::RoadNetworkBuilder b;
  const NodeId a = b.add_node({0.0, 0.0});
  const NodeId a2 = b.add_node({100.0, 0.0});
  const NodeId c = b.add_node({1000.0, 0.0});
  const NodeId c2 = b.add_node({1100.0, 0.0});
  b.add_segment(a, a2, 10.0);
  b.add_segment(c, c2, 10.0);
  const roadnet::RoadNetwork net = b.build();

  serve::SnapshotStore store;
  const serve::QueryEngine engine(net, store);
  sim::TripPlanner planner(net, roadnet::Metric::kDistance);
  obs::Registry registry;
  const QueryService service(net, engine, &planner, registry);

  const HttpResponse r = service.route(request({{"from", "0"}, {"to", "2"}}));
  EXPECT_EQ(r.code, 404);
  EXPECT_NE(r.body.find("\"error\":\"unreachable\""), std::string::npos) << r.body;
}

TEST(QueryService, MintsATraceIdWhenAbsentAndEchoesExplicitOnes) {
  Fixture fx;
  const HttpResponse minted = fx.service.topk(request({{"k", "1"}}));
  EXPECT_EQ(minted.code, 200);
  EXPECT_NE(minted.body.find("\"trace_id\":"), std::string::npos);
  EXPECT_EQ(minted.body.find("\"trace_id\":0,"), std::string::npos) << minted.body;

  const HttpResponse echoed = fx.service.topk(request({{"k", "1"}, {"trace_id", "77"}}));
  EXPECT_NE(echoed.body.find("\"trace_id\":77,"), std::string::npos) << echoed.body;
}

TEST(QueryService, RecordsPerEndpointLatencyAndErrors) {
  Fixture fx;
  EXPECT_EQ(fx.service.topk(request({{"k", "1"}})).code, 200);
  EXPECT_EQ(fx.service.topk(request({{"k", "0"}})).code, 400);
  EXPECT_EQ(fx.service.nearest(request({})).code, 400);

  // Latency histograms count every request, the error counters only 4xx/5xx.
  EXPECT_GT(fx.registry.histogram_sum_seconds("neat_net_request_seconds",
                                              {{"endpoint", "topk"}}),
            0.0);
  EXPECT_EQ(fx.registry.counter_value("neat_net_errors_total", {{"endpoint", "topk"}}),
            1u);
  EXPECT_EQ(
      fx.registry.counter_value("neat_net_errors_total", {{"endpoint", "nearest"}}),
      1u);
  EXPECT_EQ(
      fx.registry.counter_value("neat_net_errors_total", {{"endpoint", "route"}}),
      0u);
}

TEST(QueryService, ServesOverHttpThroughRegisteredRoutes) {
  Fixture fx;
  HttpServerOptions opts;
  opts.registry = &fx.registry;
  HttpServer server(opts);
  fx.service.register_routes(server);
  server.start();

  const HttpResult ok =
      http_get(server.port(), "/v1/nearest?x=50&y=5&radius=200&trace_id=42");
  EXPECT_EQ(ok.code, 200);
  EXPECT_NE(ok.raw.find("Content-Type: application/json"), std::string::npos);
  EXPECT_EQ(ok.body, read_file(data_path("query_nearest.golden.json")));

  EXPECT_EQ(http_get(server.port(), "/v1/topk?k=0").code, 400);
  EXPECT_EQ(http_get(server.port(), "/v1/route?from=0&to=2").code, 200);
  const HttpResult table = http_get(
      server.port(), "/v1/table?sources=0,1&targets=2,3,4&bound=150&trace_id=42");
  EXPECT_EQ(table.code, 200);
  EXPECT_EQ(table.body, read_file(data_path("query_table.golden.json")));
  EXPECT_EQ(http_get(server.port(), "/v1/other").code, 404);
  // The shared registry carries both the service's and the server's series.
  EXPECT_GE(fx.registry.counter_value("neat_net_requests_total",
                                      {{"path", "/v1/nearest"}, {"code", "200"}}),
            1u);
}

TEST(QueryService, SlowRequestsEmitAWarnLineJoinableByTraceId) {
  Fixture fx;
  QueryServiceOptions opts;
  opts.slow_request_seconds = 1e-9;  // every request counts as slow
  const QueryService slow_service(fx.net, fx.engine, &fx.planner, fx.registry, opts);

  // Capture the global logger (the one NEAT_LOG reports into) for the
  // duration of this test; restore the default sink on the way out.
  std::mutex mu;
  std::vector<std::string> lines;
  obs::log::Logger& logger = obs::log::Logger::global();
  logger.set_sink([&](std::string_view line) {
    const std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  });

  const HttpResponse r =
      slow_service.topk(request({{"k", "2"}, {"trace_id", "42"}}));
  EXPECT_EQ(r.code, 200);
  logger.flush();
  logger.set_sink(nullptr);

  const std::lock_guard<std::mutex> lock(mu);
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("\"msg\":\"slow request\"") == std::string::npos) continue;
    found = true;
    EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"endpoint\":\"topk\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"trace_id\":42"), std::string::npos) << line;
    EXPECT_NE(line.find("\"threshold_ms\":"), std::string::npos) << line;
  }
  EXPECT_TRUE(found) << "no slow-request line was captured";
}

}  // namespace
}  // namespace neat::net
