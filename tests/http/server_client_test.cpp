#include <gtest/gtest.h>

#include "common/value_codec.hpp"
#include "http/client.hpp"
#include "http/server.hpp"

namespace hcm::http {
namespace {

class HttpEndToEndTest : public ::testing::Test {
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

  Result<Response> do_request(HttpClient& client, Request req) {
    std::optional<Result<Response>> result;
    client.request(server->endpoint(), std::move(req),
                   [&](Result<Response> r) { result = std::move(r); });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no response"));
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* server_node = nullptr;
  net::Node* client_node = nullptr;
  std::unique_ptr<HttpServer> server;
};

TEST_F(HttpEndToEndTest, SimpleGet) {
  server->route("/hello", [](const Request&, RespondFn respond) {
    respond(Response::make(200, "OK", "world"));
  });
  HttpClient client(net, client_node->id());
  Request req;
  req.target = "/hello";
  auto resp = do_request(client, std::move(req));
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_EQ(resp.value().body, "world");
  EXPECT_EQ(server->requests_served(), 1u);
}

TEST_F(HttpEndToEndTest, NotFoundForUnknownRoute) {
  HttpClient client(net, client_node->id());
  Request req;
  req.target = "/missing";
  auto resp = do_request(client, std::move(req));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().status, 404);
}

TEST_F(HttpEndToEndTest, PostBodyEcho) {
  server->route("/echo", [](const Request& req, RespondFn respond) {
    respond(Response::make(200, "OK", req.body));
  });
  HttpClient client(net, client_node->id());
  Request req;
  req.method = "POST";
  req.target = "/echo";
  req.body = std::string(5000, 'z');
  auto resp = do_request(client, std::move(req));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().body.size(), 5000u);
}

TEST_F(HttpEndToEndTest, AsyncHandlerRespondsLater) {
  server->route("/slow", [this](const Request&, RespondFn respond) {
    sched.after(sim::seconds(2), [respond] {
      respond(Response::make(200, "OK", "finally"));
    });
  });
  HttpClient client(net, client_node->id());
  Request req;
  req.target = "/slow";
  sim::SimTime start = sched.now();
  auto resp = do_request(client, std::move(req));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().body, "finally");
  EXPECT_GE(sched.now() - start, sim::seconds(2));
}

TEST_F(HttpEndToEndTest, PrefixRoute) {
  server->route("/api/", [](const Request& req, RespondFn respond) {
    respond(Response::make(200, "OK", "prefix:" + req.target));
  });
  HttpClient client(net, client_node->id());
  Request req;
  req.target = "/api/deep/path";
  auto resp = do_request(client, std::move(req));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().body, "prefix:/api/deep/path");
}

TEST_F(HttpEndToEndTest, ConnectionRefusedSurfacesError) {
  HttpClient client(net, client_node->id());
  std::optional<Result<Response>> result;
  client.request({server_node->id(), 8081}, Request{},
                 [&](Result<Response> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
  EXPECT_EQ(result->status().code(), StatusCode::kUnavailable);
}

TEST_F(HttpEndToEndTest, RequestTimesOutWhenHandlerNeverResponds) {
  server->route("/blackhole", [](const Request&, RespondFn) {
    // never responds
  });
  HttpClient::Options opts;
  opts.request_timeout = sim::seconds(5);
  HttpClient client(net, client_node->id(), opts);
  std::optional<Result<Response>> result;
  Request req;
  req.target = "/blackhole";
  client.request(server->endpoint(), std::move(req),
                 [&](Result<Response> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->is_ok());
  EXPECT_EQ(result->status().code(), StatusCode::kTimeout);
}

TEST_F(HttpEndToEndTest, OversizedContentLengthClosesConnection) {
  int served = 0;
  server->route("/bulk", [&](const Request&, RespondFn respond) {
    ++served;
    respond(Response::make(200, "OK", "ok"));
  });
  net::StreamPtr s;
  net.connect(client_node->id(), server->endpoint(),
              [&s](Result<net::StreamPtr> r) { s = r.value(); });
  sched.run();
  ASSERT_TRUE(s);
  bool closed = false;
  Bytes answer;
  s->set_on_data([&answer](BlockStream&& d) { d.append_to(answer); });
  s->set_on_close([&closed] { closed = true; });
  // 16 MiB + 1 announced: the server hangs up on the head alone.
  BlockStream head;
  head.append("POST /bulk HTTP/1.1\r\nContent-Length: " +
              std::to_string(std::uint64_t{kMaxMessageBytes} + 1) +
              "\r\n\r\n");
  s->send(std::move(head));
  sched.run();
  EXPECT_TRUE(closed);
  EXPECT_TRUE(answer.empty());
  EXPECT_EQ(served, 0);
}

TEST_F(HttpEndToEndTest, KeepAliveReusesConnection) {
  int served = 0;
  server->route("/ka", [&](const Request&, RespondFn respond) {
    ++served;
    respond(Response::make(200, "OK", "ok"));
  });
  HttpClient::Options opts;
  opts.keep_alive = true;
  HttpClient client(net, client_node->id(), opts);
  int answered = 0;
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.target = "/ka";
    client.request(server->endpoint(), std::move(req),
                   [&](Result<Response> r) {
                     ASSERT_TRUE(r.is_ok());
                     ++answered;
                   });
  }
  sched.run();
  EXPECT_EQ(answered, 3);
  EXPECT_EQ(served, 3);
}

TEST_F(HttpEndToEndTest, KeepAliveFasterThanPerRequestConnections) {
  server->route("/t", [](const Request&, RespondFn respond) {
    respond(Response::make(200, "OK", "x"));
  });
  auto time_requests = [&](bool keep_alive) {
    HttpClient::Options opts;
    opts.keep_alive = keep_alive;
    HttpClient client(net, client_node->id(), opts);
    sim::SimTime start = sched.now();
    int remaining = 10;
    std::function<void()> issue = [&]() {
      Request req;
      req.target = "/t";
      client.request(server->endpoint(), std::move(req),
                     [&](Result<Response> r) {
                       ASSERT_TRUE(r.is_ok());
                       if (--remaining > 0) issue();
                     });
    };
    issue();
    sched.run();
    return sched.now() - start;
  };
  auto cold = time_requests(false);
  auto warm = time_requests(true);
  EXPECT_LT(warm, cold);
}

TEST_F(HttpEndToEndTest, ServerStopRefusesNewConnections) {
  server->route("/x", [](const Request&, RespondFn respond) {
    respond(Response::make(200, "OK", ""));
  });
  server->stop();
  HttpClient client(net, client_node->id());
  Request req;
  req.target = "/x";
  auto resp = do_request(client, std::move(req));
  EXPECT_FALSE(resp.is_ok());
}

TEST_F(HttpEndToEndTest, TwoServersOnDifferentPorts) {
  HttpServer second(net, server_node->id(), 8080);
  ASSERT_TRUE(second.start().is_ok());
  second.route("/b", [](const Request&, RespondFn respond) {
    respond(Response::make(200, "OK", "second"));
  });
  server->route("/a", [](const Request&, RespondFn respond) {
    respond(Response::make(200, "OK", "first"));
  });
  HttpClient client(net, client_node->id());
  std::string got_a, got_b;
  Request ra;
  ra.target = "/a";
  client.request({server_node->id(), 80}, std::move(ra),
                 [&](Result<Response> r) { got_a = r.value().body; });
  Request rb;
  rb.target = "/b";
  client.request({server_node->id(), 8080}, std::move(rb),
                 [&](Result<Response> r) { got_b = r.value().body; });
  sched.run();
  EXPECT_EQ(got_a, "first");
  EXPECT_EQ(got_b, "second");
}

TEST_F(HttpEndToEndTest, PortConflictDetected) {
  HttpServer dup(net, server_node->id(), 80);
  EXPECT_FALSE(dup.start().is_ok());
}

TEST_F(HttpEndToEndTest, WireBytesMatchSerializedMessageSizes) {
  // The serialize/stream boundary must put exactly the serialized frame
  // on the wire — no re-encoding, duplication or inflation on either
  // direction. Drives a raw stream so both byte counters are visible.
  server->route("/echo", [](const Request& req, RespondFn respond) {
    respond(Response::make(200, "OK", req.body));
  });

  net::StreamPtr stream;
  net.connect(client_node->id(), server->endpoint(),
              [&](Result<net::StreamPtr> r) {
                ASSERT_TRUE(r.is_ok());
                stream = std::move(r).take();
              });
  sched.run();
  ASSERT_NE(stream, nullptr);

  Request req;
  req.method = "POST";
  req.target = "/echo";
  req.body = "payload-0123456789";
  req.set_header("Content-Type", "text/plain");
  BlockStream wire;
  req.serialize_to(wire);
  const std::size_t wire_size = wire.size();

  BlockStream received;
  stream->set_on_data(
      [&](BlockStream&& data) { received.splice(std::move(data)); });
  stream->send(std::move(wire));
  sched.run();

  EXPECT_EQ(stream->bytes_sent(), wire_size);
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(stream->bytes_received(), received.size());

  // The received bytes re-serialize to the identical frame: parse the
  // response and compare byte counts.
  const std::size_t received_size = received.size();
  MessageParser parser(MessageParser::Mode::kResponse);
  ASSERT_TRUE(parser.feed(std::move(received)).is_ok());
  Response got;
  ASSERT_TRUE(parser.pop_response(got));
  EXPECT_FALSE(parser.pop_response(got));
  EXPECT_EQ(got.body, req.body);
  BlockStream reserialized;
  got.serialize_to(reserialized);
  EXPECT_EQ(reserialized.size(), received_size);
}

}  // namespace
}  // namespace hcm::http
