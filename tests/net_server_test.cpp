// Tests for the reusable HTTP server core (src/net/http_server.*).
//
// Carries the `concurrency` ctest label: the interesting failure modes are
// races between the acceptor/worker threads and concurrent clients, so CI
// runs this binary under TSan. The hardening bounds (request-line/head size
// caps, read timeout, connection shedding) are exercised with deliberately
// slow and malformed clients.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/stopwatch.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "obs/registry.h"

namespace neat::net {
namespace {

using namespace std::chrono_literals;

HttpResponse text(int code, std::string body) {
  return HttpResponse{code, "text/plain; charset=utf-8", std::move(body)};
}

TEST(HttpServer, RoutesDispatchAndUnknownPathsGet404) {
  HttpServer server;
  server.handle("/hello", [](const HttpRequest& req) {
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/hello");
    return text(200, "hi\n");
  });
  server.handle("/teapot", [](const HttpRequest&) { return text(418, "short\n"); });
  server.start();
  ASSERT_GT(server.port(), 0);  // port 0 resolved to a real ephemeral port

  EXPECT_EQ(http_get(server.port(), "/hello").code, 200);
  EXPECT_EQ(http_get(server.port(), "/hello").body, "hi\n");
  EXPECT_EQ(http_get(server.port(), "/nope").code, 404);
  EXPECT_EQ(server.routes(), (std::vector<std::string>{"/hello", "/teapot"}));
  EXPECT_GE(server.requests_served(), 3u);
}

TEST(HttpServer, MethodFilterMalformedLinesAndHeadSemantics) {
  HttpServer server;
  server.handle("/x", [](const HttpRequest&) { return text(200, "body\n"); });
  server.start();
  const std::uint16_t port = server.port();

  EXPECT_EQ(status_of(raw_request("127.0.0.1", port,
                                  "POST /x HTTP/1.1\r\n\r\n")),
            405);
  EXPECT_EQ(status_of(raw_request("127.0.0.1", port,
                                  "garbage with no structure\r\n\r\n")),
            400);
  EXPECT_EQ(status_of(raw_request("127.0.0.1", port,
                                  "GET noslash HTTP/1.1\r\n\r\n")),
            400);
  EXPECT_EQ(status_of(raw_request("127.0.0.1", port, "GET /x\r\n\r\n")), 400);

  // HEAD gets headers (with the true length) and no body.
  const std::string head = raw_request("127.0.0.1", port, "HEAD /x HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_of(head), 200);
  EXPECT_EQ(body_of(head), "");
  EXPECT_NE(head.find("Content-Length: 5"), std::string::npos);
}

TEST(HttpServer, QueryParametersArePercentDecodedInOrder) {
  HttpServer server;
  server.handle("/echo", [](const HttpRequest& req) {
    std::string out;
    for (const auto& [k, v] : req.params) out += k + "=" + v + ";";
    const std::string* a = req.param("a");
    EXPECT_NE(a, nullptr);
    EXPECT_EQ(req.param("absent"), nullptr);
    return text(200, out);
  });
  server.start();

  const HttpResult r =
      http_get(server.port(), "/echo?a=1&b=hello%20world&c=x+y&flag&z=%2Fpath");
  EXPECT_EQ(r.code, 200);
  EXPECT_EQ(r.body, "a=1;b=hello world;c=x y;flag=;z=/path;");
}

TEST(HttpServer, RequestLineAndHeadSizeLimits) {
  HttpServerOptions opts;
  opts.max_request_line_bytes = 128;
  opts.max_request_bytes = 1024;
  HttpServer server(opts);
  server.handle("/x", [](const HttpRequest&) { return text(200, "ok\n"); });
  server.start();

  // An oversized request line answers 414 instead of being truncated.
  const std::string long_target = "/x?pad=" + std::string(300, 'a');
  EXPECT_EQ(status_of(raw_request("127.0.0.1", server.port(),
                                  "GET " + long_target + " HTTP/1.1\r\n\r\n")),
            414);

  // A head that never terminates within the cap answers 431.
  const std::string fat_headers =
      "GET /x HTTP/1.1\r\nX-Fat: " + std::string(2048, 'b') + "\r\n";
  EXPECT_EQ(status_of(raw_request("127.0.0.1", server.port(), fat_headers)), 431);

  // A request within both caps still works.
  EXPECT_EQ(http_get(server.port(), "/x").code, 200);
}

TEST(HttpServer, HeadUnderTheCapIsServedWhateverBytesFollowIt) {
  HttpServerOptions opts;
  opts.max_request_bytes = 1024;
  HttpServer server(opts);
  server.handle("/x", [](const HttpRequest&) { return text(200, "ok\n"); });
  server.start();

  // A 628-byte head: the read that ends it also carries the bytes after
  // the blank line, and a long tail takes that read past the cap. The head
  // fits, so the answer is 200, never 431.
  const std::string head =
      "GET /x HTTP/1.1\r\nX-Pad: " + std::string(600, 'h') + "\r\n\r\n";
  ASSERT_EQ(head.size(), 628u);
  for (const std::size_t tail : {200u, 2000u}) {
    EXPECT_EQ(status_of(raw_request("127.0.0.1", server.port(),
                                    head + std::string(tail, 'b'))),
              200)
        << tail << " bytes after the head";
  }
}

TEST(HttpServer, ReadTimeoutUnwedgesSlowClients) {
  HttpServerOptions opts;
  opts.read_timeout = 200ms;
  opts.worker_threads = 1;
  HttpServer server(opts);
  server.handle("/x", [](const HttpRequest&) { return text(200, "ok\n"); });
  server.start();

  // A client that sends half a request and stalls is answered 400 after the
  // read timeout (never the full 2 s default, and the worker is free again).
  const Stopwatch watch;
  const std::string r = raw_request("127.0.0.1", server.port(), "GET /x HT");
  EXPECT_EQ(status_of(r), 400);
  EXPECT_LT(watch.elapsed_seconds(), 1.5);
  EXPECT_EQ(http_get(server.port(), "/x").code, 200);  // worker survived
}

TEST(HttpServer, ShedsConnectionsWhenPendingQueueIsFullAndCountsThem) {
  obs::Registry reg;
  HttpServerOptions opts;
  opts.worker_threads = 1;
  opts.max_pending_connections = 1;
  opts.read_timeout = 400ms;
  opts.registry = &reg;
  HttpServer server(opts);
  server.handle("/x", [](const HttpRequest&) { return text(200, "ok\n"); });
  server.start();

  // A deliberately slow client (connects, never sends) occupies the single
  // worker until its read timeout...
  std::thread slow([&server] {
    (void)raw_request("127.0.0.1", server.port(), "");
  });
  std::this_thread::sleep_for(100ms);

  // ...so a burst of further silent connections fills the 1-slot pending
  // queue and the rest are shed (closed immediately by the acceptor).
  std::vector<std::thread> burst;
  for (int i = 0; i < 6; ++i) {
    burst.emplace_back([&server] {
      (void)raw_request("127.0.0.1", server.port(), "");
    });
  }
  for (std::thread& t : burst) t.join();
  slow.join();

  EXPECT_GE(server.shed_total(), 1u);
  EXPECT_EQ(reg.counter_value("neat_net_shed_total"), server.shed_total());
  EXPECT_EQ(http_get(server.port(), "/x").code, 200);  // plane still serves
}

TEST(HttpServer, StopAnswersTheConnectionsAlreadyQueued) {
  HttpServerOptions opts;
  opts.worker_threads = 1;
  HttpServer server(opts);
  std::atomic<int> entered{0};
  server.handle("/slow", [&entered](const HttpRequest&) {
    entered.fetch_add(1);
    std::this_thread::sleep_for(300ms);
    return text(200, "ok\n");
  });
  server.start();
  const std::uint16_t port = server.port();

  // The first client holds the only worker; the second waits in the queue.
  HttpResult first;
  HttpResult second;
  std::thread a([&] { first = http_get(port, "/slow"); });
  while (entered.load() == 0) std::this_thread::sleep_for(1ms);
  std::thread b([&] { second = http_get(port, "/slow"); });
  std::this_thread::sleep_for(100ms);

  // stop() lands while the first request is still in its handler: the
  // queued connection is answered too, not dropped.
  server.stop();
  a.join();
  b.join();
  EXPECT_EQ(first.code, 200);
  EXPECT_EQ(second.code, 200);
  EXPECT_EQ(entered.load(), 2);
}

TEST(HttpServer, SelfInstrumentsRequestsUnderBoundedPathLabels) {
  obs::Registry reg;
  HttpServerOptions opts;
  opts.registry = &reg;
  HttpServer server(opts);
  server.handle("/known", [](const HttpRequest&) { return text(200, "ok\n"); });
  server.start();

  EXPECT_EQ(http_get(server.port(), "/known").code, 200);
  EXPECT_EQ(http_get(server.port(), "/spray1").code, 404);
  EXPECT_EQ(http_get(server.port(), "/spray2").code, 404);

  EXPECT_EQ(reg.counter_value("neat_net_requests_total",
                              {{"path", "/known"}, {"code", "200"}}),
            1u);
  // Unknown paths collapse into one label, not one series per bad path.
  EXPECT_EQ(reg.counter_value("neat_net_requests_total",
                              {{"path", "other"}, {"code", "404"}}),
            2u);
}

TEST(HttpServer, RegistersHelpForBothOfItsFamilies) {
  obs::Registry reg;
  HttpServerOptions opts;
  opts.registry = &reg;
  HttpServer server(opts);
  server.handle("/known", [](const HttpRequest&) { return text(200, "ok\n"); });
  (void)server.handle_request("GET", "/known");

  // Both families carry registered HELP, not the registry's generated
  // "NEAT metric <name>." line; the shed counter exists at 0 before any shed.
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP neat_net_requests_total HTTP requests answered"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP neat_net_shed_total Connections closed unanswered"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nneat_net_shed_total 0\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("NEAT metric "), std::string::npos) << text;
}

TEST(HttpServer, ConcurrentKeepAliveOffClientsAllSucceed) {
  std::atomic<std::uint64_t> handled{0};
  HttpServerOptions opts;
  opts.worker_threads = 3;
  HttpServer server(opts);
  server.handle("/work", [&handled](const HttpRequest&) {
    handled.fetch_add(1, std::memory_order_relaxed);
    return text(200, "done\n");
  });
  server.start();

  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&server, &ok] {
      for (int i = 0; i < 25; ++i) {
        const HttpResult r = http_get(server.port(), "/work");
        // One request per connection: the server always closes (keep-alive
        // off), so every exchange must terminate on its own.
        if (r.code == 200 && r.raw.find("Connection: close") != std::string::npos) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), 4 * 25);
  EXPECT_EQ(handled.load(), 100u);
}

TEST(HttpServer, StopReleasesThePortAndRouteRegistrationIsFrozen) {
  std::uint16_t port = 0;
  {
    HttpServer server;
    server.handle("/x", [](const HttpRequest&) { return text(200, "ok\n"); });
    server.start();
    port = server.port();
    EXPECT_EQ(http_get(port, "/x").code, 200);
    EXPECT_THROW(
        server.handle("/late", [](const HttpRequest&) { return HttpResponse{}; }),
        PreconditionError);
    server.stop();  // explicit stop; the destructor repeat is a no-op
  }
  // The exact port is free again: binding it succeeds right away.
  HttpServerOptions opts;
  opts.port = port;
  HttpServer rebound(opts);
  rebound.start();
  EXPECT_EQ(rebound.port(), port);
  EXPECT_EQ(http_get(port, "/anything").code, 404);
}

TEST(HttpServer, InvalidRoutesAndDoubleStartThrow) {
  HttpServer server;
  EXPECT_THROW(server.handle("noslash", [](const HttpRequest&) {
    return HttpResponse{};
  }),
               PreconditionError);
  EXPECT_THROW(server.handle("/dup", nullptr), PreconditionError);
  server.handle("/dup", [](const HttpRequest&) { return HttpResponse{}; });
  EXPECT_THROW(server.handle("/dup", [](const HttpRequest&) {
    return HttpResponse{};
  }),
               PreconditionError);
  server.start();
  EXPECT_THROW(server.start(), PreconditionError);

  HttpServerOptions opts;
  opts.bind_address = "not-an-address";
  HttpServer bad(opts);
  EXPECT_THROW(bad.start(), Error);
}

TEST(HttpServer, HandlerExceptionsBecome500NotACrash) {
  HttpServer server;
  server.handle("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("handler bug");
  });
  server.start();
  const HttpResult r = http_get(server.port(), "/boom");
  EXPECT_EQ(r.code, 500);
  // The exception text must not leak to the wire.
  EXPECT_EQ(r.raw.find("handler bug"), std::string::npos);
}

}  // namespace
}  // namespace neat::net
