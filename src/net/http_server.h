// Reusable embedded HTTP/1.1 server — the socket core both network planes
// in the process run on.
//
// A plane is a set of routes a caller registers on its own HttpServer:
// net::QueryService::register_routes adds the public /v1/* endpoints,
// net::register_admin_routes the operator endpoints (/metrics, /healthz,
// ...). The core is POSIX sockets, a blocking accept loop on a background
// thread, a small bounded worker pool, and an exact-match route table
// registered before start().
//
//   net::HttpServer server(opts);
//   server.handle("/v1/ping", [](const net::HttpRequest& q) {
//     return net::HttpResponse{200, "application/json", "{\"pong\":true}"};
//   });
//   server.start();           // binds, listens, spawns threads; throws on error
//   ... server.port() ...
//   server.stop();            // idempotent; port is free again afterwards
//
// Request model: GET and HEAD are accepted everywhere; PUT only on routes
// registered with `allow_put` (admin control surfaces like /logz — request
// bodies are never read, parameters travel in the query string). Anything
// else answers 405. The query string is split off the target and
// percent-decoded into ordered key/value parameters before the handler
// runs. Unknown paths answer 404, malformed request lines 400. Every
// response carries Content-Length and `Connection: close` and the socket
// is closed after the write, so plain `curl` always terminates.
//
// Hardening (all bounds tunable through HttpServerOptions):
//   * request head capped at `max_request_bytes` — no blank line ending
//     within that many bytes answers 431 Request Header Fields Too Large;
//   * request line capped at `max_request_line_bytes` — exceeding it
//     answers 414 URI Too Long;
//   * per-socket read/write timeouts (SO_RCVTIMEO/SO_SNDTIMEO) from
//     `read_timeout`, so a stalled client can never wedge a worker or
//     shutdown for long;
//   * accepted connections wait in a BoundedQueue of
//     `max_pending_connections`; a connection the full queue rejects is
//     closed immediately (load shedding) and counted in shed_total() and,
//     when a registry is attached, `neat_net_shed_total`. stop() answers
//     the connections already queued before it returns.
//
// Self-instrumentation: with `options.registry` set, every answered request
// is counted as `neat_net_requests_total{path=...,code=...}` (path label
// bounded to registered routes, anything else is "other").
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "obs/registry.h"

namespace neat::net {

/// One parsed request as seen by a route handler.
struct HttpRequest {
  std::string method;  ///< "GET", "HEAD", or "PUT" on an allow_put route.
  std::string path;    ///< Target up to (not including) '?'.
  std::string query;   ///< Raw query string after '?', "" when absent.
  /// Percent-decoded query parameters in request order ('+' decodes to a
  /// space; a key without '=' carries an empty value).
  std::vector<std::pair<std::string, std::string>> params;

  /// Value of the first parameter named `key`, or nullptr when absent.
  [[nodiscard]] const std::string* param(std::string_view key) const;
};

/// What a route handler returns; rendered with Content-Length and
/// `Connection: close` (body omitted for HEAD, length kept truthful).
struct HttpResponse {
  int code{200};
  std::string content_type{"text/plain; charset=utf-8"};
  std::string body;
};

/// A route handler. Invoked from worker threads: must be thread-safe and
/// must not throw (a throwing handler is answered as 500 defensively).
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Tuning of an HttpServer.
struct HttpServerOptions {
  /// IPv4 address to bind; "0.0.0.0" exposes the plane beyond localhost.
  std::string bind_address{"127.0.0.1"};
  /// TCP port; 0 picks an ephemeral port, queried back via port().
  std::uint16_t port{0};
  /// Worker threads answering requests (>= 1).
  std::size_t worker_threads{2};
  /// Accepted connections allowed to wait for a worker before shedding.
  std::size_t max_pending_connections{16};
  /// Upper bound on the request head (request line + headers) in bytes;
  /// no blank line ending within that many bytes answers 431.
  std::size_t max_request_bytes{8192};
  /// Upper bound on the request line alone; exceeded answers 414.
  std::size_t max_request_line_bytes{2048};
  /// SO_RCVTIMEO / SO_SNDTIMEO on every accepted socket.
  std::chrono::milliseconds read_timeout{2000};
  /// When set, the server self-instruments into this registry:
  /// neat_net_requests_total{path,code} and neat_net_shed_total.
  obs::Registry* registry{nullptr};
};

/// Embedded multi-threaded HTTP server with an exact-match route table.
/// Register routes with handle(), then start(); stop() (also run by the
/// destructor) joins every thread and releases the port.
class HttpServer {
 public:
  /// Stores the options; no sockets or threads yet. Handlers are invoked
  /// from server threads and must be thread-safe.
  explicit HttpServer(HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match `path` (must start with '/').
  /// `allow_put` additionally routes PUT requests to the handler (which
  /// branches on HttpRequest::method); GET/HEAD are always routed.
  /// Throws neat::PreconditionError after start() or on a duplicate path.
  void handle(std::string path, HttpHandler handler, bool allow_put = false);

  /// Binds + listens and starts the acceptor and worker threads. Throws
  /// neat::Error when the address is unavailable; at most one call.
  void start();

  /// Stops accepting, answers the connections already queued, joins every
  /// thread and closes all sockets. Idempotent; after it returns the bound
  /// port is released.
  void stop();

  /// The actually bound TCP port (resolves port 0 requests); 0 before
  /// start().
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Requests answered so far (any status code, handle_request included).
  [[nodiscard]] std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// Connections this server shed because its pending queue was full.
  [[nodiscard]] std::uint64_t shed_total() const {
    return shed_.load(std::memory_order_relaxed);
  }

  /// Registered route paths, in registration order.
  [[nodiscard]] std::vector<std::string> routes() const;

  /// Dispatches one already-parsed request line through the route table and
  /// returns the full HTTP response bytes (headers always; body unless
  /// HEAD). Exposed for tests and in-process callers; socket connections go
  /// through exactly this, so the request counters count here too.
  [[nodiscard]] std::string handle_request(const std::string& method,
                                           const std::string& target) const;

 private:
  struct Route {
    std::string path;
    HttpHandler handler;
    bool allow_put{false};
  };

  [[nodiscard]] HttpResponse dispatch(const std::string& method,
                                      const std::string& target,
                                      std::string* path_out) const;
  void count_request(const std::string& path, int code) const;
  [[nodiscard]] static std::string render(const HttpResponse& r, bool include_body);

  void accept_loop();
  void worker_loop();
  void serve_connection(int fd) const;

  HttpServerOptions options_;
  std::vector<Route> routes_;  ///< Frozen at start().
  std::atomic<bool> started_{false};
  std::atomic<int> listen_fd_{-1};  ///< Written by stop() while the acceptor reads it.
  std::uint16_t port_{0};
  std::atomic<bool> stopping_{false};
  mutable std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_{0};

  BoundedQueue<int> pending_;  ///< Accepted fds waiting for a worker.

  std::vector<std::thread> workers_;
  std::thread acceptor_;  ///< Started last, after all state.
};

}  // namespace neat::net
