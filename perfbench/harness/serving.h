// The query plane every workload serves from, and the load generators that
// drive it over loopback HTTP (one connection per request).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "net/http_server.h"
#include "net/query_service.h"
#include "obs/registry.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "sim/trip_planner.h"

namespace perfbench {

enum Endpoint : int { kNearest, kSegment, kTopk, kRoute, kEndpointCount };
inline constexpr std::array<const char*, kEndpointCount> kEndpointNames = {
    "nearest", "segment", "topk", "route"};

/// The request mix: an even split over the four endpoints.
struct RequestMix {
  const neat::roadnet::RoadNetwork* net{nullptr};
  std::vector<neat::Point> points;          ///< /v1/nearest query points (on flows).
  std::vector<neat::NodeId> destinations;   ///< /v1/route targets.

  /// A request target ("/v1/...?...") for endpoint `ep`.
  [[nodiscard]] std::string target(int ep, neat::Rng& rng) const;
};

/// Parses a target produced by RequestMix into the request a handler sees.
[[nodiscard]] neat::net::HttpRequest to_request(const std::string& target);

/// Query engine, route planner, /v1 service and HTTP server over one store.
class ServeStack {
 public:
  ServeStack(const neat::roadnet::RoadNetwork& net, const neat::serve::SnapshotStore& store,
             unsigned workers);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] const neat::net::HttpServer& server() const { return server_; }
  [[nodiscard]] const neat::net::QueryService& service() const { return service_; }
  [[nodiscard]] const neat::serve::QueryEngine& engine() const { return engine_; }

 private:
  neat::obs::Registry registry_;
  neat::serve::QueryEngine engine_;
  neat::sim::TripPlanner planner_;
  neat::net::QueryService service_;
  neat::net::HttpServer server_;
};

/// Sends one request of every kind (each route destination once, so the
/// planner's trees are built); false when any answer is unexpected.
bool warm_up(std::uint16_t port, const RequestMix& mix, std::uint64_t seed);

/// Polls /v1/nearest at `p` until it answers 200 from snapshot `version`.
/// False after 10 s without one.
bool wait_first_200(std::uint16_t port, neat::Point p, std::uint64_t version);

/// Client-side results of the open- and closed-loop query phases.
struct QueryLoad {
  /// One open-loop request, in schedule order.
  struct Sample {
    int ep{0};
    double latency_s{0.0};  ///< From the due time to the answer.
    double late_s{0.0};     ///< How late the send started.
  };
  std::vector<Sample> open;
  std::vector<double> closed_rps;  ///< Completed requests/s per closed-loop window.
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
};

/// Open loop: `rate` req/s on a fixed schedule, request i due at
/// start + i / rate, spread round-robin over `senders` threads; each
/// request is timed from its due time.
void open_loop(QueryLoad& load, std::uint16_t port, const RequestMix& mix, double rate,
               double seconds, unsigned senders, std::uint64_t seed);

/// Closed loop: `senders` threads each send the mix back to back; completed
/// requests are counted per 0.5 s window.
void closed_loop(QueryLoad& load, std::uint16_t port, const RequestMix& mix, double seconds,
                 unsigned senders, std::uint64_t seed);

/// Reports the per-layer query metrics of `load`: p50 over all requests; p99
/// as the median over consecutive 1000-request segments, so one stall of the
/// machine moves one segment, not the result; capacity as the median window
/// rate; per-endpoint client quantiles, sample counts, generator lateness,
/// sheds, and the in-process handler/engine/route costs.
void report_queries(Recorder& rec, const QueryLoad& load, const ServeStack& stack,
                    const RequestMix& mix);

}  // namespace perfbench
