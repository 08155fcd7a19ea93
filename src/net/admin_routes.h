// The admin plane: the observability layer's operator routes, registered on
// a caller-owned net::HttpServer the same way QueryService::register_routes
// adds /v1/*. They turn the in-process registry, tracer, profiler and
// logger into a live scrape and control plane:
//
//   GET /metrics   Prometheus text exposition of the registry
//   GET /healthz   liveness: 200 as long as the process serves requests
//   GET /readyz    readiness: 200 when the ready() hook says so,
//                  503 Service Unavailable otherwise (e.g. no snapshot yet)
//   GET /statusz   JSON: build info, uptime, pid, requests served by the
//                  server, profiler and logger state, plus app-supplied
//                  fields (snapshot version/age, queue depth)
//   GET /tracez    the tracer's most recent 256 finished spans as JSON;
//                  404 when no tracer is attached
//   GET /profilez  runs the sampling CPU profiler for ?seconds=N (default
//                  2, at most 60) at ?hz=H (1-10000) and answers the
//                  collapsed-stack ("folded") profile as text/plain — pipe
//                  into flamegraph tooling or tools/fold2svg.py. 409 when a
//                  session is already active, 400 on a malformed parameter.
//                  The handler blocks one worker for the duration by design.
//   GET /logz      the structured logger's state as JSON: default level,
//                  per-module levels, lines/dropped/suppressed totals
//   PUT /logz      flips log levels at runtime without a restart:
//                  ?level=LEVEL alone moves the default and every module;
//                  &module=NAME moves one module (creating it). 400 with
//                  {"error":...} on a missing/unknown level. Answers the
//                  updated /logz listing.
//
// The server answers everything else (404, 405, 400, 414, 431, shedding)
// and, when its options carry a registry, counts admin traffic as
// `neat_net_requests_total{path,code}` like any other plane's.
//
//   net::HttpServerOptions opts;
//   opts.registry = &obs::Registry::global();
//   net::HttpServer admin(opts);
//   net::register_admin_routes(admin, obs::Registry::global());
//   admin.start();
#pragma once

#include <functional>
#include <string>

#include "net/http_server.h"
#include "obs/log/log.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace neat::net {

/// What the admin routes read besides the registry. Every member may stay
/// unset.
struct AdminRouteOptions {
  /// Tracer behind /tracez; null = /tracez answers 404.
  const obs::Tracer* tracer{nullptr};
  /// Readiness probe behind /readyz; null = always ready.
  std::function<bool()> ready;
  /// Extra top-level `"key":value` JSON fields (comma-joined, no braces)
  /// merged into /statusz; null = none.
  std::function<std::string()> status_fields;
  /// Logger behind /logz and the /statusz "log" section; null =
  /// obs::log::Logger::global(). Tests attach private loggers.
  obs::log::Logger* logger{nullptr};
};

/// Registers the seven admin routes on `server` (before server.start()).
/// The routes keep references to `server`, `registry`, the tracer and the
/// logger: do not let the server outlive them. The hooks are invoked from
/// worker threads and must be thread-safe.
void register_admin_routes(HttpServer& server, obs::Registry& registry,
                           AdminRouteOptions options = {});

}  // namespace neat::net
