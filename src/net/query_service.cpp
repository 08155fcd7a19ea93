#include "net/query_service.h"

#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/log/log.h"
#include "obs/trace.h"

namespace neat::net {

namespace {

/// /v1/nearest search radius when the parameter is omitted, metres.
constexpr double kDefaultRadiusM = 500.0;
/// Largest accepted /v1/nearest radius (grid scans grow with it).
constexpr double kMaxRadiusM = 10000.0;
/// /v1/topk answer size when the parameter is omitted.
constexpr std::int64_t kDefaultK = 10;
/// Largest accepted /v1/topk k.
constexpr std::int64_t kMaxK = 1000;

/// Internal control flow of one request: thrown by validation helpers,
/// caught by QueryService::answer and rendered as the structured error body.
struct RequestError {
  int code;            ///< HTTP status.
  const char* error;   ///< Machine-readable error code.
  std::string detail;  ///< Human-readable explanation.
};

HttpResponse json_response(int code, std::string body) {
  return {code, "application/json", std::move(body)};
}

HttpResponse error_response(int code, const char* error, const std::string& detail) {
  return json_response(code, str_cat("{\"error\":\"", error, "\",\"detail\":\"",
                                     obs::json_escape(detail), "\"}"));
}

/// Required numeric parameter: present and parseable or the request fails.
double require_double(const HttpRequest& req, const char* key) {
  const std::string* raw = req.param(key);
  if (raw == nullptr) {
    throw RequestError{400, "missing_parameter",
                       str_cat("required parameter '", key, "' is missing")};
  }
  double v = 0.0;
  try {
    v = parse_double(*raw);
  } catch (const ParseError&) {
    throw RequestError{400, "invalid_parameter",
                       str_cat("parameter '", key, "' is not a number: '", *raw, "'")};
  }
  if (!std::isfinite(v)) {
    throw RequestError{400, "invalid_parameter",
                       str_cat("parameter '", key, "' must be finite")};
  }
  return v;
}

std::int64_t parse_int_param(const HttpRequest& req, const char* key,
                             const std::string& raw) {
  (void)req;
  try {
    return parse_int(raw);
  } catch (const ParseError&) {
    throw RequestError{400, "invalid_parameter",
                       str_cat("parameter '", key, "' is not an integer: '", raw, "'")};
  }
}

std::int64_t require_int(const HttpRequest& req, const char* key) {
  const std::string* raw = req.param(key);
  if (raw == nullptr) {
    throw RequestError{400, "missing_parameter",
                       str_cat("required parameter '", key, "' is missing")};
  }
  return parse_int_param(req, key, *raw);
}

std::int64_t optional_int(const HttpRequest& req, const char* key,
                          std::int64_t fallback) {
  const std::string* raw = req.param(key);
  return raw == nullptr ? fallback : parse_int_param(req, key, *raw);
}

/// The request's correlation id: the `trace_id` parameter when given (must
/// be a non-negative integer; 0 = mint), a fresh obs::next_trace_id()
/// otherwise.
std::uint64_t resolve_trace_id(const HttpRequest& req) {
  const std::int64_t raw = optional_int(req, "trace_id", 0);
  if (raw < 0) {
    throw RequestError{400, "invalid_parameter", "parameter 'trace_id' must be >= 0"};
  }
  const auto id = static_cast<std::uint64_t>(raw);
  return id == 0 ? obs::next_trace_id() : id;
}

std::string json_int_array(const std::vector<std::uint32_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
  return out;
}

/// Required comma-separated junction-id list ("0,5,12"): every element must
/// parse as an integer and name an existing node, and the list must be
/// non-empty — an empty table has no meaningful answer over HTTP.
std::vector<NodeId> require_node_list(const HttpRequest& req, const char* key,
                                      std::size_t node_count) {
  const std::string* raw = req.param(key);
  if (raw == nullptr) {
    throw RequestError{400, "missing_parameter",
                       str_cat("required parameter '", key, "' is missing")};
  }
  if (trim(*raw).empty()) {
    throw RequestError{400, "invalid_parameter",
                       str_cat("parameter '", key, "' must list at least one junction")};
  }
  std::vector<NodeId> nodes;
  for (const std::string& field : split(*raw, ',')) {
    const std::string_view token = trim(field);
    std::int64_t v = 0;
    try {
      v = parse_int(token);
    } catch (const ParseError&) {
      throw RequestError{400, "invalid_parameter",
                         str_cat("parameter '", key,
                                 "' must be a comma-separated list of junction ids; '",
                                 std::string(token), "' is not an integer")};
    }
    if (v < 0 || v >= static_cast<std::int64_t>(node_count)) {
      throw RequestError{404, "unknown_node",
                         str_cat("node ", v, " does not exist (network has ",
                                 node_count, " junctions)")};
    }
    nodes.push_back(NodeId(static_cast<std::int32_t>(v)));
  }
  if (nodes.empty()) {
    throw RequestError{400, "invalid_parameter",
                       str_cat("parameter '", key, "' must list at least one junction")};
  }
  return nodes;
}

std::string json_node_array(const std::vector<NodeId>& nodes) {
  std::string out = "[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(nodes[i].value());
  }
  out += ']';
  return out;
}

}  // namespace

QueryService::QueryService(const roadnet::RoadNetwork& net,
                           const serve::QueryEngine& engine, sim::TripPlanner* planner,
                           obs::Registry& registry, QueryServiceOptions options)
    : net_(net),
      engine_(engine),
      planner_(planner),
      registry_(registry),
      options_(options),
      nearest_ep_(make_endpoint("net.nearest", "nearest")),
      segment_ep_(make_endpoint("net.segment", "segment")),
      topk_ep_(make_endpoint("net.topk", "topk")),
      route_ep_(make_endpoint("net.route", "route")),
      table_ep_(make_endpoint("net.table", "table")) {
  registry_.set_help("neat_net_request_seconds",
                     "Query-plane handler latency by endpoint, errors included.");
}

QueryService::Endpoint QueryService::make_endpoint(const char* span_name,
                                                   const char* label) {
  return Endpoint{span_name, label,
                  registry_.histogram("neat_net_request_seconds", {{"endpoint", label}})};
}

void QueryService::register_routes(HttpServer& server) {
  server.handle("/v1/nearest", [this](const HttpRequest& req) { return nearest(req); });
  server.handle("/v1/segment", [this](const HttpRequest& req) { return segment(req); });
  server.handle("/v1/topk", [this](const HttpRequest& req) { return topk(req); });
  server.handle("/v1/route", [this](const HttpRequest& req) { return route(req); });
  server.handle("/v1/table", [this](const HttpRequest& req) { return table(req); });
}

template <class Fn>
HttpResponse QueryService::answer(const Endpoint& ep, const HttpRequest& req,
                                  Fn&& fn) const {
  const Stopwatch watch;
  obs::ScopedSpan span(ep.span_name);
  HttpResponse r;
  std::uint64_t trace_id = 0;
  try {
    trace_id = resolve_trace_id(req);
    // Ambient for the whole handler: every NEAT_LOG line emitted below this
    // frame (engine, roadnet, serve) carries the request's trace_id.
    const obs::TraceIdScope trace_scope(trace_id);
    r = fn(trace_id);
  } catch (const RequestError& e) {
    r = error_response(e.code, e.error, e.detail);
  }
  span.arg("trace_id", trace_id);
  span.arg("code", static_cast<std::int64_t>(r.code));
  const double seconds = watch.elapsed_seconds();
  ep.latency.record(seconds);
  const obs::TraceIdScope trace_scope(trace_id);
  NEAT_LOG(kDebug, "net")
      .msg("request answered")
      .kv("endpoint", ep.label)
      .kv("code", r.code)
      .kv("duration_ms", seconds * 1e3);
  if (options_.slow_request_seconds > 0.0 && seconds >= options_.slow_request_seconds) {
    NEAT_LOG(kWarn, "net")
        .msg("slow request")
        .kv("endpoint", ep.label)
        .kv("code", r.code)
        .kv("duration_ms", seconds * 1e3)
        .kv("threshold_ms", options_.slow_request_seconds * 1e3);
  }
  return r;
}

HttpResponse QueryService::nearest(const HttpRequest& req) const {
  return answer(nearest_ep_, req, [&](std::uint64_t trace_id) {
    const double x = require_double(req, "x");
    const double y = require_double(req, "y");
    const std::string* radius_raw = req.param("radius");
    double radius = kDefaultRadiusM;
    if (radius_raw != nullptr) radius = require_double(req, "radius");
    if (radius <= 0.0 || radius > kMaxRadiusM) {
      throw RequestError{400, "invalid_parameter",
                         str_cat("parameter 'radius' must be in (0, ",
                                 format_fixed(kMaxRadiusM, 0), "]")};
    }
    if (engine_.snapshot() == nullptr) {
      throw RequestError{503, "no_snapshot", "no cluster snapshot published yet"};
    }
    const auto hit = engine_.nearest_flow(Point{x, y}, radius, trace_id);
    if (!hit) {
      throw RequestError{404, "no_flow",
                         str_cat("no flow within ", format_fixed(radius, 1),
                                 " m of (", format_fixed(x, 1), ", ",
                                 format_fixed(y, 1), ")")};
    }
    return json_response(
        200, str_cat("{\"trace_id\":", hit->trace_id,
                     ",\"snapshot_version\":", hit->snapshot_version,
                     ",\"flow\":", hit->flow, ",\"segment\":", hit->segment.value(),
                     ",\"distance_m\":", format_fixed(hit->distance_m, 3),
                     ",\"final_cluster\":", hit->final_cluster,
                     ",\"cardinality\":", hit->cardinality, "}"));
  });
}

HttpResponse QueryService::segment(const HttpRequest& req) const {
  return answer(segment_ep_, req, [&](std::uint64_t trace_id) {
    const std::int64_t sid = require_int(req, "sid");
    if (sid < 0 || sid >= static_cast<std::int64_t>(net_.segment_count())) {
      throw RequestError{404, "unknown_segment",
                         str_cat("segment ", sid, " does not exist (network has ",
                                 net_.segment_count(), " segments)")};
    }
    if (engine_.snapshot() == nullptr) {
      throw RequestError{503, "no_snapshot", "no cluster snapshot published yet"};
    }
    const serve::SegmentFlows flows =
        engine_.flows_on_segment(SegmentId(static_cast<std::int32_t>(sid)), trace_id);
    return json_response(
        200, str_cat("{\"trace_id\":", flows.trace_id,
                     ",\"snapshot_version\":", flows.snapshot_version,
                     ",\"segment\":", sid, ",\"flows\":", json_int_array(flows.flows),
                     "}"));
  });
}

HttpResponse QueryService::topk(const HttpRequest& req) const {
  return answer(topk_ep_, req, [&](std::uint64_t trace_id) {
    const std::int64_t k = optional_int(req, "k", kDefaultK);
    if (k < 1 || k > kMaxK) {
      throw RequestError{400, "invalid_parameter",
                         str_cat("parameter 'k' must be in [1, ", kMaxK, "]")};
    }
    if (engine_.snapshot() == nullptr) {
      throw RequestError{503, "no_snapshot", "no cluster snapshot published yet"};
    }
    const serve::TopFlows top =
        engine_.top_k_flows(static_cast<std::size_t>(k), trace_id);
    std::string body = str_cat("{\"trace_id\":", top.trace_id,
                               ",\"snapshot_version\":", top.snapshot_version,
                               ",\"k\":", k, ",\"flows\":[");
    for (std::size_t i = 0; i < top.flows.size(); ++i) {
      const serve::RankedFlow& f = top.flows[i];
      if (i > 0) body += ',';
      body += str_cat("{\"flow\":", f.flow, ",\"cardinality\":", f.cardinality,
                      ",\"route_length_m\":", format_fixed(f.route_length_m, 3),
                      ",\"final_cluster\":", f.final_cluster, "}");
    }
    body += "]}";
    return json_response(200, std::move(body));
  });
}

HttpResponse QueryService::route(const HttpRequest& req) const {
  return answer(route_ep_, req, [&](std::uint64_t trace_id) {
    const std::int64_t from = require_int(req, "from");
    const std::int64_t to = require_int(req, "to");
    const auto node_count = static_cast<std::int64_t>(net_.node_count());
    for (const auto& [key, value] : {std::pair<const char*, std::int64_t>{"from", from},
                                     {"to", to}}) {
      if (value < 0 || value >= node_count) {
        throw RequestError{404, "unknown_node",
                           str_cat("node ", value, " does not exist (network has ",
                                   node_count, " junctions)")};
      }
      (void)key;
    }
    if (planner_ == nullptr) {
      throw RequestError{503, "route_planning_disabled",
                         "this server runs without a route planner"};
    }
    std::optional<roadnet::Route> planned;
    {
      const std::lock_guard<std::mutex> lock(planner_mu_);
      planned = planner_->plan(NodeId(static_cast<std::int32_t>(from)),
                               NodeId(static_cast<std::int32_t>(to)));
    }
    if (!planned) {
      throw RequestError{404, "unreachable",
                         str_cat("no route from node ", from, " to node ", to)};
    }
    std::vector<std::uint32_t> segments;
    segments.reserve(planned->edges.size());
    for (const EdgeId e : planned->edges) {
      segments.push_back(static_cast<std::uint32_t>(net_.edge(e).sid.value()));
    }
    std::vector<std::uint32_t> nodes;
    for (const NodeId n : planned->node_path(net_)) {
      nodes.push_back(static_cast<std::uint32_t>(n.value()));
    }
    return json_response(
        200, str_cat("{\"trace_id\":", trace_id, ",\"from\":", from, ",\"to\":", to,
                     ",\"engine\":\"sssp\",\"length_m\":",
                     format_fixed(planned->length, 3),
                     ",\"travel_time_s\":", format_fixed(planned->travel_time, 3),
                     ",\"segments\":", json_int_array(segments),
                     ",\"nodes\":", json_int_array(nodes), "}"));
  });
}

HttpResponse QueryService::table(const HttpRequest& req) const {
  return answer(table_ep_, req, [&](std::uint64_t trace_id) {
    const std::vector<NodeId> sources =
        require_node_list(req, "sources", net_.node_count());
    const std::vector<NodeId> targets =
        require_node_list(req, "targets", net_.node_count());
    const std::size_t cells = sources.size() * targets.size();
    if (cells > kMaxTableCells) {
      throw RequestError{
          400, "table_too_large",
          str_cat("table of ", sources.size(), " x ", targets.size(), " = ", cells,
                  " cells exceeds the cap of ", kMaxTableCells)};
    }
    double bound = roadnet::kInfDistance;
    if (req.param("bound") != nullptr) {
      bound = require_double(req, "bound");
      if (bound <= 0.0) {
        throw RequestError{400, "invalid_parameter",
                           "parameter 'bound' must be positive"};
      }
    }
    // Same plane-readiness gate as the other endpoints: a server whose store
    // has never published is not serving traffic yet, and answering tables
    // from it would hide the operational problem.
    if (engine_.snapshot() == nullptr) {
      throw RequestError{503, "no_snapshot", "no cluster snapshot published yet"};
    }

    std::vector<double> distances(cells);
    {
      const std::lock_guard<std::mutex> lock(table_mu_);
      if (!table_engine_) {
        // First table request pays the one-time hierarchy build (undirected,
        // metres — the Phase 3 metric the flow map itself is clustered in).
        table_ch_ = std::make_unique<const roadnet::ChEngine>(net_);
        table_engine_ = std::make_unique<roadnet::CHTableEngine>(*table_ch_);
      }
      table_engine_->table(sources, targets, distances, bound);
    }

    std::string body = str_cat("{\"trace_id\":", trace_id,
                               ",\"sources\":", json_node_array(sources),
                               ",\"targets\":", json_node_array(targets),
                               ",\"distances_m\":[");
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (i > 0) body += ',';
      body += '[';
      for (std::size_t k = 0; k < targets.size(); ++k) {
        if (k > 0) body += ',';
        const double d = distances[i * targets.size() + k];
        // Unreachable (or beyond the bound) cells are JSON null: every
        // consumer — including `python3 -m json.tool` in CI — can parse the
        // body without an out-of-band infinity convention.
        body += d == roadnet::kInfDistance ? "null" : format_fixed(d, 3);
      }
      body += ']';
    }
    body += "]}";
    return json_response(200, std::move(body));
  });
}

}  // namespace neat::net
