#include "serving.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "common/string_util.h"
#include "net/http_client.h"

namespace perfbench {

namespace {

constexpr double kMs = 1e3;
constexpr double kUs = 1e6;
constexpr std::size_t kInProcessCalls = 400;  ///< Per endpoint, traced runs only.

/// "snapshot_version":N out of a /v1 answer; 0 when absent.
std::uint64_t snapshot_version_of(const std::string& body) {
  static const std::string key = "\"snapshot_version\":";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + key.size(), nullptr, 10);
}

/// Checks one answer: 200, or 404 where the endpoint can legitimately find
/// nothing (no flow in the radius, no route); snapshot versions seen by one
/// client never go backwards.
class AnswerCheck {
 public:
  bool ok(int ep, const neat::net::HttpResult& r) {
    if (r.code == 404 && (ep == kNearest || ep == kRoute)) return true;
    if (r.code != 200) return fail(ep, "status " + std::to_string(r.code));
    if (ep == kNearest || ep == kSegment || ep == kTopk) {
      const std::uint64_t v = snapshot_version_of(r.body);
      if (v == 0) return fail(ep, "no snapshot_version in answer");
      if (v < last_version_) return fail(ep, "snapshot version went backwards");
      last_version_ = v;
    }
    return true;
  }

 private:
  bool fail(int ep, const std::string& why) {
    if (reported_++ < 3) std::cerr << "perfbench: /v1/" << kEndpointNames[ep] << ": " << why << '\n';
    return false;
  }
  std::uint64_t last_version_{0};
  int reported_{0};
};

}  // namespace

std::string RequestMix::target(int ep, neat::Rng& rng) const {
  const auto node = [&] {
    return rng.uniform_int(0, static_cast<std::int64_t>(net->node_count()) - 1);
  };
  switch (ep) {
    case kNearest: {
      const neat::Point& p = points[rng.index(points.size())];
      return neat::str_cat("/v1/nearest?x=", neat::format_fixed(p.x + rng.uniform(-20.0, 20.0), 1),
                           "&y=", neat::format_fixed(p.y + rng.uniform(-20.0, 20.0), 1),
                           "&radius=500");
    }
    case kSegment:
      return neat::str_cat("/v1/segment?sid=",
                           rng.uniform_int(0, static_cast<std::int64_t>(net->segment_count()) - 1));
    case kTopk:
      return "/v1/topk?k=10";
    default:
      return neat::str_cat("/v1/route?from=", node(), "&to=",
                           destinations[rng.index(destinations.size())].value());
  }
}

neat::net::HttpRequest to_request(const std::string& target) {
  neat::net::HttpRequest req;
  req.method = "GET";
  const std::size_t q = target.find('?');
  req.path = target.substr(0, q);
  if (q == std::string::npos) return req;
  req.query = target.substr(q + 1);
  std::size_t begin = 0;
  while (begin <= req.query.size()) {
    std::size_t end = req.query.find('&', begin);
    if (end == std::string::npos) end = req.query.size();
    const std::string pair = req.query.substr(begin, end - begin);
    const std::size_t eq = pair.find('=');
    req.params.emplace_back(pair.substr(0, eq),
                            eq == std::string::npos ? "" : pair.substr(eq + 1));
    begin = end + 1;
  }
  return req;
}

ServeStack::ServeStack(const neat::roadnet::RoadNetwork& net,
                       const neat::serve::SnapshotStore& store, unsigned workers)
    : engine_(net, store),
      planner_(net, neat::roadnet::Metric::kDistance),
      service_(net, engine_, &planner_, registry_),
      server_([&] {
        neat::net::HttpServerOptions o;
        o.worker_threads = std::max(2u, workers);
        o.max_pending_connections = 64;
        o.registry = &registry_;
        return o;
      }()) {
  service_.register_routes(server_);
  server_.start();
}

ServeStack::~ServeStack() { server_.stop(); }

bool warm_up(std::uint16_t port, const RequestMix& mix, std::uint64_t seed) {
  neat::Rng rng(seed);
  AnswerCheck check;
  bool ok = true;
  for (int ep = 0; ep < kEndpointCount; ++ep) {
    ok = check.ok(ep, neat::net::http_get(port, mix.target(ep, rng))) && ok;
  }
  for (const neat::NodeId dest : mix.destinations) {
    const std::string t = neat::str_cat("/v1/route?from=0&to=", dest.value());
    ok = check.ok(kRoute, neat::net::http_get(port, t)) && ok;
  }
  return ok;
}

bool wait_first_200(std::uint16_t port, neat::Point p, std::uint64_t version) {
  const std::string target = neat::str_cat("/v1/nearest?x=", neat::format_fixed(p.x, 3),
                                           "&y=", neat::format_fixed(p.y, 3), "&radius=500");
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < 10.0) {
    const neat::net::HttpResult r = neat::net::http_get(port, target);
    if (r.code == 200 && snapshot_version_of(r.body) >= version) return true;
    std::this_thread::yield();
  }
  return false;
}

void open_loop(QueryLoad& load, std::uint16_t port, const RequestMix& mix, double rate,
               double seconds, unsigned senders, std::uint64_t seed) {
  const auto total = static_cast<std::size_t>(rate * seconds);
  const std::size_t first = load.open.size();
  load.open.resize(first + total);  // each sender fills its own slots
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      neat::Rng rng(seed * 7919 + s);
      AnswerCheck check;
      for (std::size_t i = s; i < total; i += senders) {
        QueryLoad::Sample& sample = load.open[first + i];
        sample.ep = static_cast<int>(i % kEndpointCount);
        const std::string target = mix.target(sample.ep, rng);
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) / rate));
        // Sleep to just before the due time, then spin: a timer wake-up on
        // an idle VM CPU can take longer than the request itself.
        std::this_thread::sleep_until(due - std::chrono::microseconds(300));
        while (Clock::now() < due) {
        }
        sample.late_s = seconds_since(due);
        const neat::net::HttpResult r = neat::net::http_get(port, target);
        sample.latency_s = seconds_since(due);
        if (!check.ok(sample.ep, r)) failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  load.attempted += total;
  load.failed += failed.load();
}

void closed_loop(QueryLoad& load, std::uint16_t port, const RequestMix& mix, double seconds,
                 unsigned senders, std::uint64_t seed) {
  constexpr double kWindowS = 0.5;
  const auto windows = std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindowS));
  std::vector<std::atomic<std::uint64_t>> completed(windows);
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(static_cast<double>(windows) * kWindowS));
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      neat::Rng rng(seed * 104729 + s);
      AnswerCheck check;
      for (std::size_t i = s; Clock::now() < stop; ++i) {
        const int ep = static_cast<int>(i % kEndpointCount);
        const neat::net::HttpResult r = neat::net::http_get(port, mix.target(ep, rng));
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (!check.ok(ep, r)) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const auto w = static_cast<std::size_t>(seconds_since(start) / kWindowS);
        if (w < windows) completed[w].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& c : completed) load.closed_rps.push_back(static_cast<double>(c.load()) / kWindowS);
  load.attempted += attempted.load();
  load.failed += failed.load();
}

void report_queries(Recorder& rec, const QueryLoad& load, const ServeStack& stack,
                    const RequestMix& mix) {
  constexpr std::size_t kSegment = 1000;  // requests per p99 segment: 10 beyond the p99
  std::vector<double> pooled, late, segment_p99;
  std::array<std::vector<double>, kEndpointCount> by_ep;
  std::size_t beyond_p99 = load.open.size();
  const std::size_t segments = std::max<std::size_t>(1, load.open.size() / kSegment);
  for (std::size_t j = 0; j < segments; ++j) {
    std::vector<double> seg;
    for (std::size_t i = j * load.open.size() / segments;
         i < (j + 1) * load.open.size() / segments; ++i) {
      const QueryLoad::Sample& s = load.open[i];
      seg.push_back(s.latency_s);
      pooled.push_back(s.latency_s);
      late.push_back(s.late_s);
      by_ep[s.ep].push_back(s.latency_s);
    }
    const double p99 = quantile(seg, 0.99);
    segment_p99.push_back(p99);
    beyond_p99 = std::min(beyond_p99, count_above(seg, p99));
  }
  const double p50 = quantile(pooled, 0.50);
  rec.layer("net.query_p50_ms", p50 * kMs, "ms");
  rec.layer("net.query_p99_ms", median(segment_p99) * kMs, "ms");
  rec.layer("net.capacity_rps", median(load.closed_rps), "req/s");
  rec.layer("net.open_loop_samples", static_cast<double>(pooled.size()), "count");
  rec.layer("net.beyond_p50", static_cast<double>(count_above(pooled, p50)), "count");
  rec.layer("net.p99_segments", static_cast<double>(segments), "count");
  rec.layer("net.beyond_p99", static_cast<double>(beyond_p99), "count");
  rec.layer("net.pooled_p99_ms", quantile(pooled, 0.99) * kMs, "ms");
  rec.layer("net.generator_late_p99_ms", quantile(late, 0.99) * kMs, "ms");
  rec.layer("net.shed", static_cast<double>(stack.server().shed_total()), "count");
  for (int ep = 0; ep < kEndpointCount; ++ep) {
    const std::string name = neat::str_cat("net.", kEndpointNames[ep]);
    rec.layer(name + ".p50_ms", quantile(by_ep[ep], 0.50) * kMs, "ms");
    rec.layer(name + ".p99_ms", quantile(by_ep[ep], 0.99) * kMs, "ms");
  }

  // In-process costs of the same requests, without the socket: the server's
  // dispatch (parse + route + handler + render), the service handler alone,
  // and the query engine under the handlers.
  neat::Rng rng(rec.options().seed * 31 + 7);
  std::vector<double> dispatch_all;
  for (int ep = 0; ep < kEndpointCount; ++ep) {
    std::vector<double> dispatch;
    std::vector<double> handler;
    for (std::size_t i = 0; i < kInProcessCalls; ++i) {
      const std::string target = mix.target(ep, rng);
      timed(rec, "net.handle_request", &dispatch,
            [&] { return stack.server().handle_request("GET", target); });
      const neat::net::HttpRequest req = to_request(target);
      const neat::net::QueryService& svc = stack.service();
      timed(rec, "net.handler", &handler, [&] {
        switch (ep) {
          case kNearest: return svc.nearest(req);
          case kSegment: return svc.segment(req);
          case kTopk: return svc.topk(req);
          default: return svc.route(req);
        }
      });
    }
    dispatch_all.insert(dispatch_all.end(), dispatch.begin(), dispatch.end());
    rec.layer(neat::str_cat("net.handle_request_us.", kEndpointNames[ep]), median(dispatch) * kUs,
              "us");
    rec.layer(neat::str_cat("net.handler_us.", kEndpointNames[ep]), median(handler) * kUs, "us");
  }
  rec.layer("net.transport_us", (p50 - median(dispatch_all)) * kUs, "us");

  const neat::serve::QueryEngine& engine = stack.engine();
  std::vector<double> nearest, segment, topk;
  for (std::size_t i = 0; i < kInProcessCalls; ++i) {
    const neat::Point p = mix.points[rng.index(mix.points.size())];
    const neat::SegmentId sid(static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mix.net->segment_count()) - 1)));
    timed(rec, "serve.engine.nearest", &nearest, [&] { return engine.nearest_flow(p, 500.0); });
    timed(rec, "serve.engine.segment", &segment, [&] { return engine.flows_on_segment(sid); });
    timed(rec, "serve.engine.topk", &topk, [&] { return engine.top_k_flows(10); });
  }
  rec.layer("serve.engine.nearest_us", median(nearest) * kUs, "us");
  rec.layer("serve.engine.segment_us", median(segment) * kUs, "us");
  rec.layer("serve.engine.topk_us", median(topk) * kUs, "us");

  // Road-network layer: the planner behind /v1/route, its destination trees
  // warmed first, as the served planner's are.
  neat::sim::TripPlanner planner(*mix.net, neat::roadnet::Metric::kDistance);
  for (const neat::NodeId d : mix.destinations) (void)planner.plan(neat::NodeId(0), d);
  std::vector<double> route;
  for (std::size_t i = 0; i < kInProcessCalls; ++i) {
    const neat::NodeId from(static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mix.net->node_count()) - 1)));
    const neat::NodeId to = mix.destinations[rng.index(mix.destinations.size())];
    timed(rec, "roadnet.plan", &route, [&] { return planner.plan(from, to); });
  }
  rec.layer("roadnet.route_us", median(route) * kUs, "us");
}

}  // namespace perfbench
