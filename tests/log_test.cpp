// Tests for the async structured logging plane (src/obs/log/).
//
// Carries the `concurrency` ctest label: the interesting failure modes are
// races between producer threads and the background writer (per-thread SPSC
// rings, drop-and-count under pressure), so CI runs this binary under TSan.
//
// Every assertion about emitted output goes through a capture sink (invoked
// from the writer thread only) plus a mini JSON validator, so "each line is
// one standalone JSON object" is checked literally, not by grep alone.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/admin_routes.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/log/log.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace neat::obs::log {
namespace {

// --- a minimal recursive-descent JSON validator (objects, arrays, strings,
// numbers, true/false/null). Enough to prove a log line is standalone,
// well-formed JSON without pulling in a parser dependency.

struct JsonCursor {
  std::string_view s;
  std::size_t i{0};

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool literal(std::string_view lit) {
    if (s.substr(i, lit.size()) != lit) return false;
    i += lit.size();
    return true;
  }
  bool string() {
    ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
        const char e = s[i];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++i;
            if (i >= s.size() || std::isxdigit(static_cast<unsigned char>(s[i])) == 0)
              return false;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) == std::string_view::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(s[i]) < 0x20) {
        return false;  // raw control character: the line is not valid JSON
      }
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) != 0 || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '+' || s[i] == '-')) {
      ++i;
    }
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    const char c = s[i];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
};

bool json_valid(std::string_view line) {
  JsonCursor c{line, 0};
  if (!c.value()) return false;
  c.ws();
  return c.i == line.size();
}

/// Thread-safe line capture to attach as a logger sink. The writer thread
/// is the only producer; tests read after flush() under the same mutex.
struct Capture {
  std::mutex mu;
  std::vector<std::string> lines;

  Sink sink() {
    return [this](std::string_view line) {
      const std::lock_guard<std::mutex> lock(mu);
      lines.emplace_back(line);
    };
  }
  std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> lock(mu);
    return lines;
  }
};

LoggerOptions quiet_options(Registry* reg) {
  LoggerOptions opt;
  opt.registry = reg;
  opt.rate_limit_window = std::chrono::milliseconds(0);
  return opt;
}

TEST(LogLevel, NamesAndParsingRoundTrip) {
  EXPECT_STREQ(level_name(Level::kTrace), "trace");
  EXPECT_STREQ(level_name(Level::kError), "error");
  EXPECT_STREQ(level_name(Level::kOff), "off");
  for (const char* name : {"trace", "debug", "info", "warn", "error", "off"}) {
    const auto level = parse_level(name);
    ASSERT_TRUE(level.has_value()) << name;
    EXPECT_STREQ(level_name(*level), name);
  }
  EXPECT_FALSE(parse_level("verbose").has_value());
  EXPECT_FALSE(parse_level("").has_value());
  EXPECT_FALSE(parse_level("INFO").has_value());
}

TEST(Logger, FiltersBelowModuleLevel) {
  Registry reg;
  Capture cap;
  Logger logger(quiet_options(&reg));
  logger.set_sink(cap.sink());

  { Statement s(logger, Level::kDebug, "core"); EXPECT_FALSE(s.active()); }
  { Statement s(logger, Level::kInfo, "core"); EXPECT_TRUE(s.active()); s.msg("kept"); }
  logger.flush();
  EXPECT_EQ(cap.snapshot().size(), 1u);

  // Flipping one module to debug does not open the floodgates elsewhere.
  logger.set_level("core", Level::kDebug);
  { Statement s(logger, Level::kDebug, "core"); EXPECT_TRUE(s.active()); s.msg("dbg"); }
  { Statement s(logger, Level::kDebug, "net"); EXPECT_FALSE(s.active()); }
  logger.flush();
  EXPECT_EQ(cap.snapshot().size(), 2u);

  // set_default_level flips existing modules too (the --log-level semantic).
  logger.set_default_level(Level::kError);
  EXPECT_EQ(logger.module("core").level(), Level::kError);
  EXPECT_EQ(logger.module("net").level(), Level::kError);
  { Statement s(logger, Level::kWarn, "core"); EXPECT_FALSE(s.active()); }
}

TEST(Logger, EmitsOneWellFormedJsonObjectPerLine) {
  Registry reg;
  Capture cap;
  Logger logger(quiet_options(&reg));
  logger.set_sink(cap.sink());

  Statement(logger, Level::kInfo, "t")
      .msg("hello \"world\"\n")
      .kv("count", std::uint64_t{7})
      .kv("delta", -3)
      .kv("ratio", 0.5)
      .kv("bad", std::nan(""))
      .kv("ok", true)
      .kv("name", "a\"b");
  logger.flush();

  const auto lines = cap.snapshot();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_TRUE(json_valid(line)) << line;
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"module\":\"t\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"msg\":\"hello \\\"world\\\"\\n\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"count\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"delta\":-3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"bad\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"name\":\"a\\\"b\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts\":\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"tid\":"), std::string::npos) << line;
}

TEST(Logger, CarriesAmbientTraceId) {
  Registry reg;
  Capture cap;
  Logger logger(quiet_options(&reg));
  logger.set_sink(cap.sink());

  Statement(logger, Level::kInfo, "t").msg("no trace");
  {
    const TraceIdScope scope(42);
    Statement(logger, Level::kInfo, "t").msg("traced");
  }
  EXPECT_EQ(current_trace_id(), 0u);
  logger.flush();

  const auto lines = cap.snapshot();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("\"trace_id\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"trace_id\":42"), std::string::npos) << lines[1];
}

TEST(Logger, FullRingDropsAndCountsInsteadOfBlocking) {
  Registry reg;
  Capture cap;
  LoggerOptions opt = quiet_options(&reg);
  opt.ring_slots = 4;
  // A sweep period far beyond the test duration: the burst below must
  // overflow the ring rather than race the writer's drain.
  opt.poll_period = std::chrono::milliseconds(10000);
  Logger logger(opt);
  logger.set_sink(cap.sink());

  constexpr std::uint64_t kTotal = 100;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    Statement(logger, Level::kInfo, "t").msg("burst").kv("i", i);
  }
  logger.flush();

  EXPECT_GT(logger.dropped(), 0u);
  EXPECT_EQ(logger.lines() + logger.dropped(), kTotal);
  EXPECT_EQ(cap.snapshot().size(), logger.lines());
  EXPECT_EQ(reg.counter_value("neat_obs_log_dropped_total", {{"module", "t"}}),
            logger.dropped());
  for (const std::string& line : cap.snapshot()) {
    EXPECT_TRUE(json_valid(line)) << line;
  }
}

TEST(Logger, LoggersUsedInTurnOnOneThreadEachKeepTheirRing) {
  // More loggers than Logger::kMaxLiveLoggers built, used and destroyed in
  // turn on one thread: the per-thread ring table bounds the loggers alive
  // at once, so the last ones log like the first.
  constexpr std::uint64_t kLoggers = Logger::kMaxLiveLoggers + 2;
  for (std::uint64_t k = 0; k < kLoggers; ++k) {
    Registry reg;
    Capture cap;
    Logger logger(quiet_options(&reg));
    logger.set_sink(cap.sink());
    Module& mod = logger.module("seq");
    // No ring on this thread yet: the signal-safe path must refuse rather
    // than push into the ring an earlier logger left behind.
    EXPECT_FALSE(logger.try_log_signal_safe(Level::kInfo, mod, "early")) << k;
    Statement(logger, Level::kInfo, "seq").msg("statement").kv("k", k);
    EXPECT_TRUE(logger.try_log_signal_safe(Level::kInfo, mod, "signal-safe")) << k;
    logger.flush();
    EXPECT_EQ(logger.dropped(), 0u) << k;
    const std::vector<std::string> lines = cap.snapshot();
    ASSERT_EQ(lines.size(), 2u) << k;
    EXPECT_NE(lines[0].find("\"msg\":\"statement\""), std::string::npos) << lines[0];
    EXPECT_NE(lines[1].find("\"msg\":\"signal-safe\""), std::string::npos) << lines[1];
  }
}

TEST(Logger, SuppressesRepeatsAndSummarizes) {
  Registry reg;
  Capture cap;
  LoggerOptions opt;
  opt.registry = &reg;
  opt.rate_limit_window = std::chrono::milliseconds(60000);  // never expires mid-test
  {
    Logger logger(opt);
    logger.set_sink(cap.sink());
    for (int i = 0; i < 5; ++i) {
      Statement(logger, Level::kWarn, "t").msg("same thing");
    }
    Statement(logger, Level::kWarn, "t").msg("different thing");
    logger.flush();
    EXPECT_EQ(logger.suppressed(), 4u);
    EXPECT_EQ(reg.counter_value("neat_obs_log_suppressed_total"), 4u);
    // Destruction force-flushes the pending suppression summary.
  }
  const auto lines = cap.snapshot();
  std::size_t same = 0;
  bool summary = false;
  for (const std::string& line : lines) {
    EXPECT_TRUE(json_valid(line)) << line;
    if (line.find("\"msg\":\"same thing\"") != std::string::npos) {
      ++same;
      if (line.find("\"suppressed\":4") != std::string::npos) summary = true;
    }
  }
  EXPECT_EQ(same, 2u);  // the first occurrence + the summary
  EXPECT_TRUE(summary);
}

TEST(Logger, CountsEmittedLinesPerLevel) {
  Registry reg;
  Capture cap;
  Logger logger(quiet_options(&reg));
  logger.set_sink(cap.sink());
  Statement(logger, Level::kInfo, "t").msg("a");
  Statement(logger, Level::kWarn, "t").msg("b");
  Statement(logger, Level::kWarn, "t").msg("c");
  logger.flush();
  EXPECT_EQ(reg.counter_value("neat_obs_log_lines_total", {{"level", "info"}}), 1u);
  EXPECT_EQ(reg.counter_value("neat_obs_log_lines_total", {{"level", "warn"}}), 2u);
}

TEST(Logger, LogzJsonReportsStateAndModules) {
  Registry reg;
  Capture cap;
  Logger logger(quiet_options(&reg));
  logger.set_sink(cap.sink());
  logger.set_level("net", Level::kDebug);
  Statement(logger, Level::kInfo, "core").msg("x");
  logger.flush();

  const std::string json = logger.logz_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"default\":\"info\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"module\":\"net\",\"level\":\"debug\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"lines\":1"), std::string::npos) << json;
}

TEST(Logger, ManyThreadsHammerWithoutTearingLines) {
  Registry reg;
  Capture cap;
  LoggerOptions opt = quiet_options(&reg);
  opt.ring_slots = 64;  // small enough that drops actually happen under load
  opt.poll_period = std::chrono::milliseconds(1);
  Logger logger(opt);
  logger.set_sink(cap.sink());

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&logger, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        Statement(logger, Level::kInfo, "hammer")
            .msg("tick")
            .kv("thread", t)
            .kv("i", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  logger.flush();

  EXPECT_EQ(logger.lines() + logger.dropped(), kThreads * kPerThread);
  const auto lines = cap.snapshot();
  EXPECT_EQ(lines.size(), logger.lines());
  for (const std::string& line : lines) {
    ASSERT_TRUE(json_valid(line)) << line;
    ASSERT_EQ(line.front(), '{') << line;
    ASSERT_EQ(line.back(), '}') << line;
  }
}

TEST(LogzEndpoint, GetAndPutRoundTripThroughHttp) {
  Registry reg;
  Capture cap;
  Logger logger(quiet_options(&reg));
  logger.set_sink(cap.sink());

  net::HttpServer server;
  net::AdminRouteOptions opt;
  opt.logger = &logger;
  net::register_admin_routes(server, reg, opt);
  server.start();
  ASSERT_GT(server.port(), 0);

  const net::HttpResult get = net::http_get(server.port(), "/logz");
  EXPECT_EQ(get.code, 200);
  EXPECT_TRUE(json_valid(get.body)) << get.body;
  EXPECT_NE(get.body.find("\"default\":\"info\""), std::string::npos) << get.body;

  // PUT flips one module...
  const net::HttpResult put =
      net::http_put(server.port(), "/logz?module=net&level=debug");
  EXPECT_EQ(put.code, 200);
  EXPECT_EQ(logger.module("net").level(), Level::kDebug);
  // ...or the default when no module is named.
  const net::HttpResult put_all = net::http_put(server.port(), "/logz?level=warn");
  EXPECT_EQ(put_all.code, 200);
  EXPECT_EQ(logger.default_level(), Level::kWarn);
  EXPECT_EQ(logger.module("net").level(), Level::kWarn);

  // Bad or missing levels answer structured 400s and change nothing.
  const net::HttpResult bad =
      net::http_put(server.port(), "/logz?module=net&level=loud");
  EXPECT_EQ(bad.code, 400);
  EXPECT_NE(bad.body.find("\"error\":\"invalid_level\""), std::string::npos) << bad.body;
  EXPECT_EQ(logger.module("net").level(), Level::kWarn);
  const net::HttpResult missing = net::http_put(server.port(), "/logz?module=net");
  EXPECT_EQ(missing.code, 400);
  EXPECT_NE(missing.body.find("\"error\":\"missing_parameter\""), std::string::npos)
      << missing.body;

  // /statusz carries the logger state for one-stop debugging.
  const net::HttpResult status = net::http_get(server.port(), "/statusz");
  EXPECT_EQ(status.code, 200);
  EXPECT_NE(status.body.find("\"log\":{"), std::string::npos) << status.body;
}

TEST(LogzEndpoint, PutIsRejectedOnOtherRoutes) {
  Registry reg;
  Capture cap;
  Logger logger(quiet_options(&reg));
  logger.set_sink(cap.sink());
  net::HttpServer server;
  net::AdminRouteOptions opt;
  opt.logger = &logger;
  net::register_admin_routes(server, reg, opt);
  server.start();
  const net::HttpResult put = net::http_put(server.port(), "/metrics");
  EXPECT_EQ(put.code, 405);
}

}  // namespace
}  // namespace neat::obs::log
