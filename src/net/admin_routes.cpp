#include "net/admin_routes.h"

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/prof/profiler.h"

#ifndef NEAT_GIT_SHA
#define NEAT_GIT_SHA "unknown"
#endif

namespace neat::net {

namespace {

/// Span count cap of the /tracez payload.
constexpr std::size_t kTracezSpans = 256;
/// Longest profiling run /profilez accepts, seconds.
constexpr double kProfilezMaxSeconds = 60.0;

HttpResponse text(int code, std::string body) {
  return {code, "text/plain; charset=utf-8", std::move(body)};
}

HttpResponse json(int code, std::string body) {
  return {code, "application/json", std::move(body)};
}

/// One profiling run per request: ?seconds=N wall clock, deliberately
/// blocking this worker — the other workers keep /metrics and /healthz
/// live, and the profiler itself rejects overlap process-wide.
HttpResponse profilez(const HttpRequest& q) {
  double seconds = 2.0;
  if (const std::string* raw = q.param("seconds")) {
    try {
      seconds = parse_double(*raw);
    } catch (const ParseError&) {
      seconds = -1.0;
    }
    if (!(seconds > 0.0) || seconds > kProfilezMaxSeconds) {
      return json(400, str_cat("{\"error\":\"invalid_parameter\",\"message\":\"seconds "
                               "must be a number in (0, ",
                               format_fixed(kProfilezMaxSeconds, 0), "]\"}"));
    }
  }
  obs::prof::ProfilerOptions popts;
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
      return json(400,
                  "{\"error\":\"invalid_parameter\",\"message\":\"hz must be an integer "
                  "in [1, 10000]\"}");
    }
    popts.sample_hz = static_cast<int>(hz);
  }
  if (!obs::prof::Profiler::global().start(popts)) {
    return json(409,
                "{\"error\":\"profiler_busy\",\"message\":\"a profiling session is "
                "already active\"}");
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const obs::prof::Profile profile = obs::prof::Profiler::global().stop();
  std::string folded = profile.to_folded();
  if (folded.empty()) {
    // An idle process accrues no CPU time, so a valid run can see zero
    // samples; say so instead of returning an empty 200 body.
    folded = str_cat("# no samples: process used no CPU during the ",
                     format_fixed(seconds, 1), "s window\n");
  }
  return text(200, std::move(folded));
}

HttpResponse logz(obs::log::Logger& logger, const HttpRequest& q) {
  if (q.method == "PUT") {
    const std::string* raw = q.param("level");
    if (raw == nullptr) {
      return json(400,
                  "{\"error\":\"missing_parameter\",\"message\":\"PUT /logz "
                  "requires ?level=trace|debug|info|warn|error|off\"}");
    }
    const std::optional<obs::log::Level> level = obs::log::parse_level(*raw);
    if (!level.has_value()) {
      return json(400, str_cat("{\"error\":\"invalid_level\",\"message\":\"unknown "
                               "level '",
                               obs::json_escape(*raw),
                               "' (want trace|debug|info|warn|error|off)\"}"));
    }
    const std::string* module = q.param("module");
    if (module == nullptr || *module == "*") {
      logger.set_default_level(*level);
    } else {
      logger.set_level(*module, *level);
    }
    obs::log::Statement(logger, obs::log::Level::kInfo, "obs")
        .msg("log level changed via /logz")
        .kv("module", module != nullptr ? module->c_str() : "*")
        .kv("level", obs::log::level_name(*level));
  }
  return json(200, logger.logz_json());
}

std::string status_json(const HttpServer& server, const obs::log::Logger& logger,
                        const std::function<std::string()>& status_fields,
                        std::chrono::steady_clock::time_point start) {
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::string out = "{\"service\":\"neat\",\"pid\":";
  out += std::to_string(::getpid());
  out += ",\"uptime_s\":";
  out += format_fixed(uptime_s, 3);
  out += ",\"requests_served\":";
  out += std::to_string(server.requests_served());
  out += ",\"build\":{\"git_sha\":\"";
  out += obs::json_escape(NEAT_GIT_SHA);
  out += "\",\"compiler\":\"";
  out += obs::json_escape(__VERSION__);
  out += "\"},\"profiler\":";
  out += obs::prof::Profiler::global().status_json();
  out += ",\"log\":";
  out += logger.logz_json();
  if (status_fields) {
    const std::string extra = status_fields();
    if (!extra.empty()) {
      out += ',';
      out += extra;
    }
  }
  out += '}';
  return out;
}

}  // namespace

void register_admin_routes(HttpServer& server, obs::Registry& registry,
                           AdminRouteOptions options) {
  obs::log::Logger& logger =
      options.logger != nullptr ? *options.logger : obs::log::Logger::global();
  server.handle("/metrics", [&registry](const HttpRequest&) {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        registry.to_prometheus()};
  });
  server.handle("/healthz", [](const HttpRequest&) { return text(200, "ok\n"); });
  server.handle("/readyz", [ready = std::move(options.ready)](const HttpRequest&) {
    if (!ready || ready()) return text(200, "ready\n");
    return text(503, "not ready\n");
  });
  server.handle("/statusz",
                [&server, &logger, status_fields = std::move(options.status_fields),
                 start = std::chrono::steady_clock::now()](const HttpRequest&) {
                  return json(200, status_json(server, logger, status_fields, start));
                });
  server.handle("/tracez", [tracer = options.tracer](const HttpRequest&) {
    if (tracer == nullptr) return text(404, "no tracer attached\n");
    return json(200, tracer->to_tracez_json(kTracezSpans));
  });
  server.handle("/profilez", profilez);
  server.handle(
      "/logz", [&logger](const HttpRequest& q) { return logz(logger, q); },
      /*allow_put=*/true);
}

}  // namespace neat::net
