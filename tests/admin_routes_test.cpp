// Tests for the admin routes (src/net/admin_routes.*) on a net::HttpServer.
//
// Carries the `concurrency` ctest label: the interesting failure modes are
// races between the acceptor/worker threads, concurrent scrapers, and
// metric writers, so CI runs this binary under TSan. What the server core
// answers on its own (404/405/400/HEAD, size caps, shedding, port rebind,
// bad bind addresses) is net_server_test's. The process-sampling cases read
// /proc/self, so they need Linux.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/admin_routes.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/registry.h"
#include "obs/resource_sampler.h"
#include "obs/trace.h"

namespace neat::net {
namespace {

/// Value of `series` (name plus label block, as exported) in a Prometheus
/// exposition; -1 when the series is absent.
double series_value(const std::string& exposition, const std::string& series) {
  const std::string key = "\n" + series + " ";
  const std::size_t at = exposition.find(key);
  if (at == std::string::npos) return -1.0;
  return std::stod(exposition.substr(at + key.size()));
}

/// The `Threads:` line of /proc/self/status; -1 when unreadable.
long own_thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stol(line.substr(8));
  }
  return -1;
}

/// minflt (field 10 of /proc/self/stat): this process's minor faults so far.
std::uint64_t own_minor_faults() {
  std::ifstream in("/proc/self/stat");
  std::string content;
  std::getline(in, content);
  // Fields after the parenthesised comm start at field 3 (state).
  std::istringstream rest(content.substr(content.rfind(')') + 1));
  std::string skipped;
  for (int field = 3; field < 10; ++field) rest >> skipped;
  std::uint64_t minflt = 0;
  rest >> minflt;
  return minflt;
}

/// A started admin plane on an ephemeral port that serves `reg` and counts
/// its own traffic into it, as the examples wire it.
std::unique_ptr<HttpServer> start_admin(obs::Registry& reg,
                                        AdminRouteOptions options = {},
                                        std::size_t workers = 2) {
  HttpServerOptions opts;
  opts.worker_threads = workers;
  opts.registry = &reg;
  auto server = std::make_unique<HttpServer>(opts);
  register_admin_routes(*server, reg, std::move(options));
  server->start();
  return server;
}

TEST(AdminRoutes, ServesMetricsHealthAndStatusOnEphemeralPort) {
  obs::Registry reg;
  reg.counter("neat_test_http_total", {{"kind", "x"}}).add(3);
  const auto server = start_admin(reg);
  ASSERT_GT(server->port(), 0);  // port 0 resolved to a real ephemeral port
  EXPECT_EQ(server->routes(),
            (std::vector<std::string>{"/metrics", "/healthz", "/readyz", "/statusz",
                                      "/tracez", "/profilez", "/logz"}));

  const HttpResult metrics = http_get(server->port(), "/metrics");
  EXPECT_EQ(metrics.code, 200);
  EXPECT_NE(metrics.raw.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("# HELP neat_test_http_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("neat_test_http_total{kind=\"x\"} 3"), std::string::npos);

  // Content-Length must match the body exactly (curl depends on it).
  const std::size_t cl_at = metrics.raw.find("Content-Length: ");
  ASSERT_NE(cl_at, std::string::npos);
  EXPECT_EQ(metrics.body.size(), std::stoul(metrics.raw.substr(cl_at + 16)));

  EXPECT_EQ(http_get(server->port(), "/healthz").code, 200);
  const HttpResult status = http_get(server->port(), "/statusz");
  EXPECT_EQ(status.code, 200);
  EXPECT_NE(status.body.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(status.body.find("\"uptime_s\""), std::string::npos);

  EXPECT_GE(server->requests_served(), 3u);
  // Admin traffic is counted like every other plane's.
  EXPECT_EQ(reg.counter_value("neat_net_requests_total",
                              {{"path", "/metrics"}, {"code", "200"}}),
            1u);
  EXPECT_EQ(reg.counter_value("neat_net_requests_total",
                              {{"path", "/healthz"}, {"code", "200"}}),
            1u);
}

TEST(AdminRoutes, ReadyzFlipsFrom503To200) {
  obs::Registry reg;
  std::atomic<bool> ready{false};
  AdminRouteOptions opts;
  opts.ready = [&ready] { return ready.load(); };
  const auto server = start_admin(reg, opts);

  const HttpResult before = http_get(server->port(), "/readyz");
  EXPECT_EQ(before.code, 503);
  EXPECT_EQ(before.body, "not ready\n");

  ready.store(true);
  const HttpResult after = http_get(server->port(), "/readyz");
  EXPECT_EQ(after.code, 200);
  EXPECT_EQ(after.body, "ready\n");
}

TEST(AdminRoutes, TracezServesRecentSpansWithTraceIds) {
  obs::Registry reg;
  obs::Tracer tracer;
  tracer.set_enabled(true);
  std::uint64_t id = 0;
  {
    obs::ScopedSpan span("test.request", tracer);
    id = obs::next_trace_id();
    span.arg("trace_id", id);
  }
  AdminRouteOptions opts;
  opts.tracer = &tracer;
  const auto server = start_admin(reg, opts);
  const HttpResult tracez = http_get(server->port(), "/tracez");
  EXPECT_EQ(tracez.code, 200);
  EXPECT_NE(tracez.body.find("test.request"), std::string::npos);
  EXPECT_NE(tracez.body.find("\"trace_id\":" + std::to_string(id)), std::string::npos);

  // Without a tracer the endpoint does not exist.
  obs::Registry reg2;
  const auto no_tracer = start_admin(reg2);
  EXPECT_EQ(http_get(no_tracer->port(), "/tracez").code, 404);
}

TEST(AdminRoutes, ConcurrentScrapesWhileWritersRecord) {
  obs::Registry reg;
  const auto server = start_admin(reg, {}, /*workers=*/3);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&reg, &stop, w] {
      obs::Counter& c =
          reg.counter("neat_test_writes_total", {{"writer", std::to_string(w)}});
      obs::Log2Histogram& h = reg.histogram("neat_test_write_seconds");
      while (!stop.load(std::memory_order_relaxed)) {
        c.add(1);
        h.record(1e-6);
      }
    });
  }
  std::atomic<int> ok{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 4; ++s) {
    scrapers.emplace_back([&server, &ok] {
      for (int i = 0; i < 25; ++i) {
        if (http_get(server->port(), "/metrics").code == 200) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(ok.load(), 4 * 25);  // every concurrent scrape succeeded
}

TEST(AdminRoutes, MetricsSamplesProcessThreadsAtEachScrape) {
  obs::Registry reg;
  const auto server = start_admin(reg);
  const double before =
      series_value(http_get(server->port(), "/metrics").body, "neat_process_threads");
  ASSERT_GT(before, 0.0);

  // Four threads, parked until the second scrape has been compared.
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool release = false;
  std::vector<std::thread> extra;
  for (int i = 0; i < 4; ++i) {
    extra.emplace_back([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == 4; });
  }
  const double after =
      series_value(http_get(server->port(), "/metrics").body, "neat_process_threads");
  const long actual = own_thread_count();
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : extra) t.join();

  // The gauge is the process as of the scrape, not as of an older sample.
  EXPECT_EQ(after, before + 4.0);
  EXPECT_EQ(after, static_cast<double>(actual));
}

TEST(AdminRoutes, ConcurrentScrapesNeverDoubleCountPageFaults) {
  obs::Registry reg;
  const auto server = start_admin(reg);
  const std::string minor = "neat_store_page_faults_total{kind=\"minor\"}";
  std::atomic<int> scraped{0};
  std::atomic<int> over{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const HttpResult r = http_get(server->port(), "/metrics");
        const double counted = series_value(r.body, minor);
        // Read after the answer: the process's own total can only have grown.
        const auto taken = static_cast<double>(own_minor_faults());
        if (r.code == 200 && counted > 0.0) scraped.fetch_add(1);
        if (counted > taken) over.fetch_add(1);
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(scraped.load(), 2 * 50);
  EXPECT_EQ(over.load(), 0);

  // A second sampler on the same registry (neat_cli's --metrics-out pass
  // next to a live /metrics) follows the same total instead of adding to it.
  obs::ResourceSampler(reg).sample_now();
  EXPECT_LE(static_cast<double>(
                reg.counter_value("neat_store_page_faults_total", {{"kind", "minor"}})),
            static_cast<double>(own_minor_faults()));
}

}  // namespace
}  // namespace neat::net
