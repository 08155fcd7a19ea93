// Public HTTP query plane: JSON endpoints over the serving stack.
//
// A QueryService turns the in-process read path (serve::QueryEngine over a
// SnapshotStore) and the road-network route planner (sim::TripPlanner, a
// bounded cache of per-destination reverse shortest-path trees) into
// versioned public endpoints on a net::HttpServer:
//
//   GET /v1/nearest?x=&y=[&radius=][&trace_id=]   flow clusters near a point
//   GET /v1/segment?sid=[&trace_id=]              flows through a segment
//   GET /v1/topk[?k=][&trace_id=]                 densest flows
//   GET /v1/route?from=&to=[&trace_id=]           directed shortest route
//   GET /v1/table?sources=&targets=[&bound=][&trace_id=]
//                                                 many-to-many distance table
//
// /v1/table takes comma-separated junction id lists and answers the full
// sources x targets matrix of undirected network distances (metres, the
// Phase 3 metric) from one bucket-based CH fill (roadnet::CHTableEngine);
// unreachable or beyond-`bound` cells are JSON null. The matrix size is
// capped (QueryService::kMaxTableCells, answering 400 `table_too_large`)
// because response size and fill work grow with it.
//
// Every response is JSON. Errors are structured, machine-readable objects
// `{"error":"<code>","detail":"<human text>"}`:
//   400  missing_parameter / invalid_parameter — strict validation: every
//        parameter must parse, the radius must be in (0, 10000] m (default
//        500) and k in [1, 1000] (default 10); table_too_large (sources x
//        targets above the cap);
//   404  unknown_segment / unknown_node (well-formed but nonexistent id),
//        no_flow (nothing within the radius), unreachable (no route);
//   503  no_snapshot (the store has never published — queries against an
//        empty store are an operational error, not an empty success),
//        route_planning_disabled (no planner attached).
//
// Request correlation: each endpoint accepts an optional `trace_id` query
// parameter (a fresh obs::next_trace_id() is minted when absent or 0). The
// id is attached to the endpoint's span and echoed in the response body, so
// one /tracez search follows one request from the HTTP edge through the
// engine's query spans — the same convention the ingest path uses.
//
// Observability: the service records, per endpoint, a
// `neat_net_request_seconds{endpoint=...}` obs::Log2Histogram and a
// `neat_net_errors_total{endpoint=...}` counter (4xx/5xx) into its
// registry; the HttpServer it is registered on contributes
// `neat_net_requests_total{path=...,code=...}` and `neat_net_shed_total`
// when constructed with the same registry attached, as the admin routes'
// server does (net/admin_routes.h). Structured logging: the
// request's trace id is installed as the thread's ambient id for the whole
// handler, every request emits a debug line, and requests slower than
// QueryServiceOptions::slow_request_seconds emit a warn "slow request" line
// (endpoint, status, duration, trace_id) joinable against /tracez.
//
// Thread safety: handlers run on the server's worker pool. QueryEngine is
// already thread-safe; the TripPlanner is not and is serialized behind an
// internal mutex (route planning is the only stateful endpoint).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "net/http_server.h"
#include "obs/registry.h"
#include "roadnet/ch_table.h"
#include "serve/query_engine.h"
#include "sim/trip_planner.h"

namespace neat::net {

/// Tuning of the query plane.
struct QueryServiceOptions {
  /// Requests slower than this emit one structured warn line (module "net":
  /// endpoint, status, duration_ms, trace_id) so operators can join the
  /// line against /tracez and /profilez. <= 0 disables the slow log.
  double slow_request_seconds{0.5};
};

/// The /v1/* endpoint family. Keeps references to `net`, `engine`,
/// `planner` (nullable: /v1/route answers 503) and `registry`; do not
/// outlive them.
class QueryService {
 public:
  /// Largest accepted /v1/table matrix (sources x targets cells): both the
  /// response body and the fill work grow with the product, so oversized
  /// requests answer 400 table_too_large instead of stalling a worker.
  static constexpr std::size_t kMaxTableCells = 4096;

  QueryService(const roadnet::RoadNetwork& net, const serve::QueryEngine& engine,
               sim::TripPlanner* planner, obs::Registry& registry,
               QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers the five /v1/* routes on `server` (before server.start()).
  /// Attach the same registry to the server's options to get the
  /// neat_net_requests_total / neat_net_shed_total counters alongside the
  /// service's per-endpoint series.
  void register_routes(HttpServer& server);

  // Endpoint handlers, exposed for in-process tests; the registered routes
  // call exactly these.
  [[nodiscard]] HttpResponse nearest(const HttpRequest& req) const;
  [[nodiscard]] HttpResponse segment(const HttpRequest& req) const;
  [[nodiscard]] HttpResponse topk(const HttpRequest& req) const;
  [[nodiscard]] HttpResponse route(const HttpRequest& req) const;
  [[nodiscard]] HttpResponse table(const HttpRequest& req) const;

 private:
  /// Per-endpoint cached registry series (creation is the cold path).
  struct Endpoint {
    const char* span_name;       ///< Static-storage span name ("net.nearest").
    const char* label;           ///< Metric/log endpoint label ("nearest").
    obs::Log2Histogram& latency;
    obs::Counter& errors;
  };

  template <class Fn>
  [[nodiscard]] HttpResponse answer(const Endpoint& ep, const HttpRequest& req,
                                    Fn&& fn) const;

  Endpoint make_endpoint(const char* span_name, const char* label);

  const roadnet::RoadNetwork& net_;
  const serve::QueryEngine& engine_;
  sim::TripPlanner* planner_;
  obs::Registry& registry_;
  QueryServiceOptions options_;
  mutable std::mutex planner_mu_;  ///< TripPlanner is stateful; serialize it.
  /// /v1/table backend, built lazily on the first table request (an
  /// undirected hierarchy over the whole network — a one-time cost most
  /// deployments never pay) and serialized like the planner: the table
  /// engine's label caches are stateful.
  mutable std::mutex table_mu_;
  mutable std::unique_ptr<const roadnet::ChEngine> table_ch_;
  mutable std::unique_ptr<roadnet::CHTableEngine> table_engine_;
  Endpoint nearest_ep_;
  Endpoint segment_ep_;
  Endpoint topk_ep_;
  Endpoint route_ep_;
  Endpoint table_ep_;
};

}  // namespace neat::net
