// Minimal blocking HTTP/1.1 client for loopback traffic.
//
// One request per connection (the server answers `Connection: close`), no
// keep-alive, no TLS, no redirects — exactly enough to drive and test the
// in-process HTTP planes (the /v1/* and admin routes on net::HttpServer)
// from load generators, benches and unit tests without pulling in a
// dependency.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace neat::net {

/// One finished exchange. `code` is -1 when no parseable status line came
/// back (connection refused, timeout, empty response).
struct HttpResult {
  int code{-1};
  std::string body;  ///< Bytes after the blank line; "" when none.
  std::string raw;   ///< Everything read from the socket, headers included.

  [[nodiscard]] bool ok() const { return code == 200; }
};

/// Sends `request_bytes` verbatim to `host`:`port` and reads until the
/// server closes the connection (or `timeout` elapses per socket op).
/// Returns the raw response bytes; "" on connect/send failure.
[[nodiscard]] std::string raw_request(
    const std::string& host, std::uint16_t port, const std::string& request_bytes,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

/// Issues `GET target HTTP/1.1` against 127.0.0.1:`port` and parses the
/// status code and body out of the response.
[[nodiscard]] HttpResult http_get(
    std::uint16_t port, const std::string& target,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

/// Issues `PUT target HTTP/1.1` (no body — parameters travel in the query
/// string, matching the admin plane's control endpoints such as /logz).
[[nodiscard]] HttpResult http_put(
    std::uint16_t port, const std::string& target,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

/// Status code of a raw HTTP/1.1 response, -1 when unparseable.
[[nodiscard]] int status_of(const std::string& response);

/// Body of a raw HTTP/1.1 response ("" when no blank line was seen).
[[nodiscard]] std::string body_of(const std::string& response);

}  // namespace neat::net
