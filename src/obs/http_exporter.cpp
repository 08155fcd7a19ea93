#include "obs/http_exporter.h"

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/prof/profiler.h"

#ifndef NEAT_GIT_SHA
#define NEAT_GIT_SHA "unknown"
#endif

namespace neat::obs {

net::HttpServerOptions HttpExporter::server_options() const {
  net::HttpServerOptions sopts;
  sopts.bind_address = options_.bind_address;
  sopts.port = options_.port;
  sopts.worker_threads = options_.worker_threads;
  sopts.max_pending_connections = options_.max_pending_connections;
  // Legacy neat_obs_* instrumentation: the admin plane keeps its historical
  // metric names (and nothing else) in the registry it exports, so scrape
  // output is unchanged by the net::HttpServer extraction.
  sopts.observer = [this](const std::string& path, int code) {
    count_request(path, code);
  };
  sopts.on_shed = [this] {
    registry_.counter("neat_obs_http_connections_dropped_total").add(1);
  };
  return sopts;
}

HttpExporter::HttpExporter(Registry& registry, HttpExporterOptions options,
                           Tracer* tracer)
    : registry_(registry),
      tracer_(tracer),
      options_(std::move(options)),
      start_(std::chrono::steady_clock::now()),
      server_(server_options()) {
  register_routes();
  server_.start();
}

void HttpExporter::register_routes() {
  server_.handle("/metrics", [this](const net::HttpRequest&) {
    return net::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                             registry_.to_prometheus()};
  });
  server_.handle("/healthz", [](const net::HttpRequest&) {
    return net::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });
  server_.handle("/readyz", [this](const net::HttpRequest&) {
    const bool ready = !options_.ready || options_.ready();
    if (ready) return net::HttpResponse{200, "text/plain; charset=utf-8", "ready\n"};
    return net::HttpResponse{503, "text/plain; charset=utf-8", "not ready\n"};
  });
  server_.handle("/statusz", [this](const net::HttpRequest&) {
    return net::HttpResponse{200, "application/json", status_json()};
  });
  server_.handle("/tracez", [this](const net::HttpRequest&) {
    if (tracer_ == nullptr) {
      return net::HttpResponse{404, "text/plain; charset=utf-8",
                               "no tracer attached\n"};
    }
    return net::HttpResponse{200, "application/json",
                             tracer_->to_tracez_json(options_.tracez_spans)};
  });
  server_.handle("/profilez", [this](const net::HttpRequest& q) {
    // One profiling run per request: ?seconds=N wall clock, deliberately
    // blocking this worker — the other workers keep /metrics and /healthz
    // live, and the profiler itself rejects overlap process-wide.
    double seconds = 2.0;
    if (const std::string* raw = q.param("seconds")) {
      try {
        seconds = parse_double(*raw);
      } catch (const ParseError&) {
        seconds = -1.0;
      }
      if (!(seconds > 0.0) || seconds > options_.profilez_max_seconds) {
        return net::HttpResponse{
            400, "application/json",
            str_cat("{\"error\":\"invalid_parameter\",\"message\":\"seconds must be "
                    "a number in (0, ",
                    format_fixed(options_.profilez_max_seconds, 0), "]\"}")};
      }
    }
    prof::ProfilerOptions popts;
    if (const std::string* raw = q.param("hz")) {
      // Range-check the 64-bit value before narrowing: a cast first would
      // wrap e.g. 2^32 + 1 into range.
      std::int64_t hz = 0;
      try {
        hz = parse_int(*raw);
      } catch (const ParseError&) {
        hz = 0;
      }
      if (hz < 1 || hz > 10000) {
        return net::HttpResponse{
            400, "application/json",
            "{\"error\":\"invalid_parameter\",\"message\":\"hz must be an integer "
            "in [1, 10000]\"}"};
      }
      popts.sample_hz = static_cast<int>(hz);
    }
    if (!prof::Profiler::global().start(popts)) {
      return net::HttpResponse{
          409, "application/json",
          "{\"error\":\"profiler_busy\",\"message\":\"a profiling session is "
          "already active\"}"};
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const prof::Profile profile = prof::Profiler::global().stop();
    std::string folded = profile.to_folded();
    if (folded.empty()) {
      // An idle process accrues no CPU time, so a valid run can see zero
      // samples; say so instead of returning an empty 200 body.
      folded = str_cat("# no samples: process used no CPU during the ",
                       format_fixed(seconds, 1), "s window\n");
    }
    return net::HttpResponse{200, "text/plain; charset=utf-8", std::move(folded)};
  });
  server_.handle(
      "/logz",
      [this](const net::HttpRequest& q) {
        log::Logger& logger =
            options_.logger != nullptr ? *options_.logger : log::Logger::global();
        if (q.method == "PUT") {
          const std::string* raw = q.param("level");
          if (raw == nullptr) {
            return net::HttpResponse{
                400, "application/json",
                "{\"error\":\"missing_parameter\",\"message\":\"PUT /logz "
                "requires ?level=trace|debug|info|warn|error|off\"}"};
          }
          const std::optional<log::Level> level = log::parse_level(*raw);
          if (!level.has_value()) {
            return net::HttpResponse{
                400, "application/json",
                str_cat("{\"error\":\"invalid_level\",\"message\":\"unknown "
                        "level '",
                        json_escape(*raw),
                        "' (want trace|debug|info|warn|error|off)\"}")};
          }
          const std::string* module = q.param("module");
          if (module == nullptr || *module == "*") {
            logger.set_default_level(*level);
          } else {
            logger.set_level(*module, *level);
          }
          log::Statement(logger, log::Level::kInfo, "obs")
              .msg("log level changed via /logz")
              .kv("module", module != nullptr ? module->c_str() : "*")
              .kv("level", log::level_name(*level));
        }
        return net::HttpResponse{200, "application/json", logger.logz_json()};
      },
      /*allow_put=*/true);
}

std::string HttpExporter::status_json() const {
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  std::string out = "{\"service\":\"neat\",\"pid\":";
  out += std::to_string(::getpid());
  out += ",\"uptime_s\":";
  out += format_fixed(uptime_s, 3);
  out += ",\"requests_served\":";
  out += std::to_string(requests_served());
  out += ",\"build\":{\"git_sha\":\"";
  out += json_escape(NEAT_GIT_SHA);
  out += "\",\"compiler\":\"";
  out += json_escape(__VERSION__);
  out += "\"},\"profiler\":";
  out += prof::Profiler::global().status_json();
  out += ",\"log\":";
  out += (options_.logger != nullptr ? *options_.logger : log::Logger::global())
             .logz_json();
  if (options_.status_fields) {
    const std::string extra = options_.status_fields();
    if (!extra.empty()) {
      out += ',';
      out += extra;
    }
  }
  out += '}';
  return out;
}

void HttpExporter::count_request(const std::string& path, int code) const {
  // Bound the label cardinality: only the fixed endpoint table appears as a
  // path label, anything else (including malformed requests) is "other".
  const bool known = path == "/metrics" || path == "/healthz" || path == "/readyz" ||
                     path == "/statusz" || path == "/tracez" ||
                     path == "/profilez" || path == "/logz";
  registry_.counter("neat_obs_http_requests_total",
                    {{"path", known ? path : "other"}, {"code", std::to_string(code)}})
      .add(1);
}

}  // namespace neat::obs
