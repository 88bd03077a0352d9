// Edge cases of the HTTP client's keep-alive connection pool: reuse,
// serialization of in-flight requests, reconnection after the server
// drops the connection, and timeout interaction with queued requests.
#include <gtest/gtest.h>

#include "http/client.hpp"
#include "http/server.hpp"

namespace hcm::http {
namespace {

class ClientPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node = &net.add_node("server");
    client_node = &net.add_node("client");
    auto& eth = net.add_ethernet("lan", sim::microseconds(200), 100'000'000);
    net.attach(*server_node, eth);
    net.attach(*client_node, eth);
    server = std::make_unique<HttpServer>(net, server_node->id(), 80);
    ASSERT_TRUE(server->start().is_ok());
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* server_node = nullptr;
  net::Node* client_node = nullptr;
  std::unique_ptr<HttpServer> server;
};

TEST_F(ClientPoolTest, QueuedRequestsSerializeInOrder) {
  std::vector<std::string> served;
  server->route("/q", [&](const Request& req, RespondFn respond) {
    served.push_back(req.body);
    respond(Response::make(200, "OK", req.body));
  });
  HttpClient::Options opts;
  opts.keep_alive = true;
  HttpClient client(net, client_node->id(), opts);
  std::vector<std::string> answered;
  for (int i = 0; i < 5; ++i) {
    Request req;
    req.method = "POST";
    req.target = "/q";
    req.body = "r" + std::to_string(i);
    client.request(server->endpoint(), std::move(req),
                   [&](Result<Response> r) {
                     ASSERT_TRUE(r.is_ok());
                     answered.push_back(r.value().body);
                   });
  }
  sched.run();
  ASSERT_EQ(served.size(), 5u);
  ASSERT_EQ(answered.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(served[static_cast<std::size_t>(i)],
              "r" + std::to_string(i));
    EXPECT_EQ(answered[static_cast<std::size_t>(i)],
              "r" + std::to_string(i));
  }
}

TEST_F(ClientPoolTest, ReconnectsAfterServerRestart) {
  int served = 0;
  server->route("/x", [&](const Request&, RespondFn respond) {
    ++served;
    respond(Response::make(200, "OK", "ok"));
  });
  HttpClient::Options opts;
  opts.keep_alive = true;
  HttpClient client(net, client_node->id(), opts);

  auto one_request = [&]() -> Result<Response> {
    std::optional<Result<Response>> result;
    Request req;
    req.target = "/x";
    client.request(server->endpoint(), std::move(req),
                   [&](Result<Response> r) { result = std::move(r); });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no response"));
  };

  ASSERT_TRUE(one_request().is_ok());

  // The server restarts: existing pooled connections die with it.
  server->stop();
  server_node->set_up(false);
  sched.run();
  server_node->set_up(true);
  server = std::make_unique<HttpServer>(net, server_node->id(), 80);
  ASSERT_TRUE(server->start().is_ok());
  server->route("/x", [&](const Request&, RespondFn respond) {
    ++served;
    respond(Response::make(200, "OK", "ok"));
  });

  // The pool must detect the dead connection and dial a fresh one.
  auto second = one_request();
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(served, 2);
}

TEST_F(ClientPoolTest, RequestDroppedByARestartedServerIsReportedStale) {
  auto serve_ok = [](const Request&, RespondFn respond) {
    respond(Response::make(200, "OK", "ok"));
  };
  server->route("/x", serve_ok);
  HttpClient::Options opts;
  opts.keep_alive = true;
  HttpClient client(net, client_node->id(), opts);
  auto one_request = [&]() -> Result<Response> {
    std::optional<Result<Response>> result;
    Request req;
    req.target = "/x";
    client.request(server->endpoint(), std::move(req),
                   [&](Result<Response> r) { result = std::move(r); });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no response"));
  };
  ASSERT_TRUE(one_request().is_ok());

  // The server restarts in the same instant: the pooled connection
  // that already carried a response takes the next request, and the
  // old server's close drops it unanswered.
  server = std::make_unique<HttpServer>(net, server_node->id(), 80);
  ASSERT_TRUE(server->start().is_ok());
  server->route("/x", serve_ok);
  const auto dropped = one_request();
  ASSERT_FALSE(dropped.is_ok());
  EXPECT_TRUE(is_stale_connection(dropped.status()))
      << dropped.status().to_string();

  // A resend dials the new server.
  EXPECT_TRUE(one_request().is_ok());
}

TEST_F(ClientPoolTest, MidRequestServerDeathFailsThatRequest) {
  server->route("/slow", [this](const Request&, RespondFn respond) {
    sched.after(sim::seconds(2), [respond] {
      respond(Response::make(200, "OK", "late"));
    });
  });
  HttpClient::Options opts;
  opts.keep_alive = true;
  HttpClient client(net, client_node->id(), opts);
  std::optional<Result<Response>> result;
  Request req;
  req.target = "/slow";
  client.request(server->endpoint(), std::move(req),
                 [&](Result<Response> r) { result = std::move(r); });
  sched.run_for(sim::milliseconds(500));
  server_node->set_up(false);
  // With the server gone its response can never arrive; the request
  // must fail (connection reset on next activity or timeout).
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
  // The connection never carried a response: not a stale one.
  EXPECT_FALSE(is_stale_connection(result->status()));
}

TEST_F(ClientPoolTest, TimeoutFailsQueuedRequestsToo) {
  server->route("/blackhole", [](const Request&, RespondFn) {});
  HttpClient::Options opts;
  opts.keep_alive = true;
  opts.request_timeout = sim::seconds(3);
  HttpClient client(net, client_node->id(), opts);
  int failures = 0;
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.target = "/blackhole";
    client.request(server->endpoint(), std::move(req),
                   [&](Result<Response> r) {
                     if (!r.is_ok()) ++failures;
                   });
  }
  sched.run();
  // The in-flight request times out; closing the connection fails the
  // queued ones as well — none may hang forever.
  EXPECT_EQ(failures, 3);
}

TEST_F(ClientPoolTest, BusyPoolOpensConnectionsUpToItsCap) {
  server->route("/slow", [this](const Request&, RespondFn respond) {
    sched.after(sim::milliseconds(10), [respond] {
      respond(Response::make(200, "OK", "done"));
    });
  });
  HttpClient::Options opts;
  opts.keep_alive = true;
  opts.max_connections = 3;
  HttpClient client(net, client_node->id(), opts);
  int ok = 0;
  auto send = [&] {
    Request req;
    req.target = "/slow";
    client.request(server->endpoint(), std::move(req),
                   [&](Result<Response> r) { ok += r.is_ok() ? 1 : 0; });
  };
  // Five at once: three connections, two requests queue behind them.
  for (int i = 0; i < 5; ++i) send();
  sched.run();
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(server->connections_accepted(), 3u);
  // One at a time: an idle pooled connection takes each.
  for (int i = 0; i < 4; ++i) {
    send();
    sched.run();
  }
  EXPECT_EQ(ok, 9);
  EXPECT_EQ(server->connections_accepted(), 3u);
}

TEST_F(ClientPoolTest, PeerCloseDropsIdleSiblingsBeforeTheyAreReused) {
  auto route = [this] {
    server->route("/x", [](const Request&, RespondFn respond) {
      respond(Response::make(200, "OK", "ok"));
    });
  };
  route();
  HttpClient::Options opts;
  opts.keep_alive = true;
  opts.max_connections = 2;
  HttpClient client(net, client_node->id(), opts);
  auto send = [&](auto on_done) {
    Request req;
    req.target = "/x";
    client.request(server->endpoint(), std::move(req), std::move(on_done));
  };
  int ok = 0;
  for (int i = 0; i < 2; ++i) {
    send([&](Result<Response> r) { ok += r.is_ok() ? 1 : 0; });
  }
  sched.run();
  ASSERT_EQ(ok, 2);  // two idle pooled connections

  // The server restarts; both connections close, and the client hears
  // of it one connection at a time. A request sent on the first close
  // must not pick the second, still closing, connection.
  server->stop();
  server = std::make_unique<HttpServer>(net, server_node->id(), 80);
  ASSERT_TRUE(server->start().is_ok());
  route();
  std::optional<Result<Response>> first, retried;
  send([&](Result<Response> r) {
    first = std::move(r);
    send([&](Result<Response> r2) { retried = std::move(r2); });
  });
  sched.run();
  ASSERT_TRUE(first.has_value() && retried.has_value());
  EXPECT_FALSE(first->is_ok());  // sent on a connection the server closed
  EXPECT_TRUE(retried->is_ok()) << retried->status().to_string();
}

TEST_F(ClientPoolTest, SeparateDestinationsGetSeparateConnections) {
  HttpServer second(net, server_node->id(), 8080);
  ASSERT_TRUE(second.start().is_ok());
  int a = 0, b = 0;
  server->route("/s", [&](const Request&, RespondFn respond) {
    ++a;
    respond(Response::make(200, "OK", "a"));
  });
  second.route("/s", [&](const Request&, RespondFn respond) {
    ++b;
    respond(Response::make(200, "OK", "b"));
  });
  HttpClient::Options opts;
  opts.keep_alive = true;
  HttpClient client(net, client_node->id(), opts);
  for (int i = 0; i < 2; ++i) {
    Request ra;
    ra.target = "/s";
    client.request({server_node->id(), 80}, std::move(ra),
                   [](Result<Response>) {});
    Request rb;
    rb.target = "/s";
    client.request({server_node->id(), 8080}, std::move(rb),
                   [](Result<Response>) {});
  }
  sched.run();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);
}

}  // namespace
}  // namespace hcm::http
