#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/log/log.h"

namespace neat::net {

namespace {

const char* reason_phrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 414: return "URI Too Long";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

void set_socket_timeouts(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Percent-decoding of one query-string token ('+' is a space; a malformed
/// %-escape is kept literally, never an error).
std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() && hex_digit(s[i + 1]) >= 0 &&
               hex_digit(s[i + 2]) >= 0) {
      out += static_cast<char>(hex_digit(s[i + 1]) * 16 + hex_digit(s[i + 2]));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

/// Splits `query` ("a=1&b=x%20y") into decoded key/value pairs in order.
std::vector<std::pair<std::string, std::string>> parse_query(std::string_view query) {
  std::vector<std::pair<std::string, std::string>> params;
  std::size_t at = 0;
  while (at <= query.size()) {
    const std::size_t amp = query.find('&', at);
    const std::string_view pair =
        query.substr(at, amp == std::string_view::npos ? amp : amp - at);
    if (!pair.empty()) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        params.emplace_back(url_decode(pair), "");
      } else {
        params.emplace_back(url_decode(pair.substr(0, eq)),
                            url_decode(pair.substr(eq + 1)));
      }
    }
    if (amp == std::string_view::npos) break;
    at = amp + 1;
  }
  return params;
}

}  // namespace

const std::string* HttpRequest::param(std::string_view key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

HttpServer::HttpServer(HttpServerOptions options) : options_(std::move(options)) {
  if (options_.worker_threads == 0) options_.worker_threads = 1;
  if (options_.max_pending_connections == 0) options_.max_pending_connections = 1;
  if (options_.max_request_bytes == 0) options_.max_request_bytes = 1024;
  if (options_.max_request_line_bytes == 0) options_.max_request_line_bytes = 256;
  if (options_.read_timeout.count() <= 0) {
    options_.read_timeout = std::chrono::milliseconds(2000);
  }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, HttpHandler handler, bool allow_put) {
  if (started_.load(std::memory_order_acquire)) {
    throw PreconditionError("HttpServer: handle() after start()");
  }
  if (path.empty() || path.front() != '/') {
    throw PreconditionError(str_cat("HttpServer: route '", path,
                                    "' must start with '/'"));
  }
  if (handler == nullptr) {
    throw PreconditionError(str_cat("HttpServer: null handler for '", path, "'"));
  }
  for (const Route& existing : routes_) {
    if (existing.path == path) {
      throw PreconditionError(str_cat("HttpServer: duplicate route '", path, "'"));
    }
  }
  routes_.push_back({std::move(path), std::move(handler), allow_put});
}

void HttpServer::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    throw PreconditionError("HttpServer: start() called twice");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw Error(str_cat("HttpServer: socket() failed: ", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw Error(str_cat("HttpServer: invalid bind address '",
                        options_.bind_address, "'"));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw Error(str_cat("HttpServer: cannot listen on ", options_.bind_address, ":",
                        options_.port, ": ", why));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw Error(str_cat("HttpServer: getsockname() failed: ", why));
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  NEAT_LOG(kInfo, "net")
      .msg("listening")
      .kv("address", options_.bind_address)
      .kv("port", port_)
      .kv("workers", options_.worker_threads)
      .kv("routes", routes_.size());

  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

void HttpServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (acceptor_.joinable()) acceptor_.join();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    return;
  }
  // Unblock the acceptor: shutdown() makes a blocked accept() return on
  // Linux, close() releases the port.
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Connections still queued were never answered; just release them.
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    for (const int pending_fd : pending_) ::close(pending_fd);
    pending_.clear();
  }
  if (port_ != 0) {
    NEAT_LOG(kInfo, "net")
        .msg("stopped")
        .kv("port", port_)
        .kv("requests_served", served_.load(std::memory_order_relaxed))
        .kv("shed", shed_.load(std::memory_order_relaxed));
  }
}

std::vector<std::string> HttpServer::routes() const {
  std::vector<std::string> out;
  out.reserve(routes_.size());
  for (const Route& route : routes_) out.push_back(route.path);
  return out;
}

void HttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket gone (EBADF/EINVAL after stop, or fatal)
    }
    set_socket_timeouts(fd, options_.read_timeout);
    bool shed = false;
    {
      const std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() >= options_.max_pending_connections) {
        shed = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (shed) {
      ::close(fd);
      shed_.fetch_add(1, std::memory_order_relaxed);
      if (options_.registry != nullptr) {
        options_.registry->counter("neat_net_shed_total").add(1);
      }
      // The logger's rate limiter collapses a shed storm into summary lines.
      NEAT_LOG(kWarn, "net")
          .msg("connection shed: pending queue full")
          .kv("port", port_)
          .kv("max_pending", options_.max_pending_connections);
      if (options_.on_shed) options_.on_shed();
    } else {
      queue_cv_.notify_one();
    }
  }
}

void HttpServer::worker_loop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd) const {
  // Read until the end of the request head (bodies are never consumed) or
  // until the size cap / timeout; a client that sends nothing valid within
  // either bound gets an error response or a plain close.
  std::string request;
  char buf[1024];
  bool head_complete = false;
  while (request.size() < options_.max_request_bytes) {
    if (request.find("\r\n\r\n") != std::string::npos ||
        request.find("\n\n") != std::string::npos) {
      head_complete = true;
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {  // EOF, timeout or error
      if (!request.empty()) {
        NEAT_LOG(kDebug, "net")
            .msg("request read ended before head completed")
            .kv("bytes_read", request.size())
            .kv("timed_out", errno == EAGAIN || errno == EWOULDBLOCK);
      }
      break;
    }
    request.append(buf, static_cast<std::size_t>(n));
  }
  if (request.empty()) return;  // connected and left: nothing to answer

  if (!head_complete && request.size() >= options_.max_request_bytes) {
    count_request("", 431);
    NEAT_LOG(kWarn, "net")
        .msg("request head too large")
        .kv("limit", options_.max_request_bytes);
    send_all(fd, render({431, "text/plain; charset=utf-8",
                         "request head too large\n"},
                        true));
    return;
  }

  // Request line: METHOD SP TARGET SP HTTP/x.y
  const std::size_t eol = request.find_first_of("\r\n");
  const std::string line = request.substr(0, eol);
  if (line.size() > options_.max_request_line_bytes) {
    count_request("", 414);
    NEAT_LOG(kWarn, "net")
        .msg("request line too long")
        .kv("length", line.size())
        .kv("limit", options_.max_request_line_bytes);
    send_all(fd, render({414, "text/plain; charset=utf-8",
                         "request line too long\n"},
                        true));
    return;
  }
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 == std::string::npos ? sp1 : sp1 + 1);
  std::string method, target, version;
  if (sp1 != std::string::npos && sp2 != std::string::npos && sp2 > sp1 + 1) {
    method = line.substr(0, sp1);
    target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    version = line.substr(sp2 + 1);
  }
  if (method.empty() || target.empty() || target.front() != '/' ||
      version.rfind("HTTP/", 0) != 0) {
    count_request("", 400);
    NEAT_LOG(kDebug, "net").msg("malformed request line");
    send_all(fd,
             render({400, "text/plain; charset=utf-8", "bad request\n"}, true));
    return;
  }
  send_all(fd, handle_request(method, target));
}

std::string HttpServer::handle_request(const std::string& method,
                                       const std::string& target) const {
  std::string path;
  const HttpResponse r = dispatch(method, target, &path);
  count_request(path, r.code);
  return render(r, method != "HEAD");
}

HttpResponse HttpServer::dispatch(const std::string& method,
                                  const std::string& target,
                                  std::string* path_out) const {
  const std::size_t qmark = target.find('?');
  *path_out = target.substr(0, qmark);
  if (method != "GET" && method != "HEAD" && method != "PUT") {
    return {405, "text/plain; charset=utf-8", "method not allowed\n"};
  }
  for (const Route& route : routes_) {
    if (route.path != *path_out) continue;
    if (method == "PUT" && !route.allow_put) {
      return {405, "text/plain; charset=utf-8", "method not allowed\n"};
    }
    HttpRequest req;
    req.method = method;
    req.path = *path_out;
    if (qmark != std::string::npos) req.query = target.substr(qmark + 1);
    req.params = parse_query(req.query);
    try {
      return route.handler(req);
    } catch (const std::exception&) {
      // Handlers are documented not to throw; answer rather than crash a
      // worker, and never leak exception text to the wire.
      return {500, "text/plain; charset=utf-8", "internal error\n"};
    }
  }
  return {404, "text/plain; charset=utf-8", "not found\n"};
}

void HttpServer::count_request(const std::string& path, int code) const {
  served_.fetch_add(1, std::memory_order_relaxed);
  if (options_.registry != nullptr) {
    // Bound the label cardinality: only the registered route table appears
    // as a path label, anything else (including malformed requests) is
    // "other".
    bool known = false;
    for (const Route& route : routes_) {
      if (route.path == path) {
        known = true;
        break;
      }
    }
    options_.registry
        ->counter("neat_net_requests_total",
                  {{"path", known ? path : "other"}, {"code", std::to_string(code)}})
        .add(1);
  }
  if (options_.observer) options_.observer(path, code);
}

std::string HttpServer::render(const HttpResponse& r, bool include_body) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(r.code);
  out += ' ';
  out += reason_phrase(r.code);
  out += "\r\nContent-Type: ";
  out += r.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(r.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  if (include_body) out += r.body;
  return out;
}

}  // namespace neat::net
