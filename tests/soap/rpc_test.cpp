#include "soap/rpc.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace hcm::soap {
namespace {

class SoapRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node = &net.add_node("soap-server");
    client_node = &net.add_node("soap-client");
    auto& eth = net.add_ethernet("lan", sim::microseconds(200), 100'000'000);
    net.attach(*server_node, eth);
    net.attach(*client_node, eth);
    http_server = std::make_unique<http::HttpServer>(net, server_node->id(), 80);
    ASSERT_TRUE(http_server->start().is_ok());
    service = std::make_unique<SoapService>(*http_server, "/svc");
  }

  Result<Value> do_call(const std::string& method, const NamedValues& params) {
    SoapClient client(net, client_node->id());
    std::optional<Result<Value>> result;
    client.call({server_node->id(), 80}, "/svc", "urn:test", method, params,
                [&](Result<Value> r) { result = std::move(r); });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no result"));
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* server_node = nullptr;
  net::Node* client_node = nullptr;
  std::unique_ptr<http::HttpServer> http_server;
  std::unique_ptr<SoapService> service;
};

TEST_F(SoapRpcTest, EchoCall) {
  service->register_method("echo",
                           [](const NamedValues& params, CallResultFn done) {
                             done(params.empty() ? Value() : params[0].second);
                           });
  auto r = do_call("echo", {{"v", Value("marco")}});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), Value("marco"));
}

TEST_F(SoapRpcTest, AddCall) {
  service->register_method("add", [](const NamedValues& params,
                                     CallResultFn done) {
    std::int64_t sum = 0;
    for (const auto& [k, v] : params) sum += v.as_int();
    done(Value(sum));
  });
  auto r = do_call("add", {{"a", Value(2)}, {"b", Value(40)}});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), Value(42));
}

TEST_F(SoapRpcTest, UnknownMethodFaults) {
  auto r = do_call("nope", {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SoapRpcTest, HandlerErrorPropagatesAsFault) {
  service->register_method("fail",
                           [](const NamedValues&, CallResultFn done) {
                             done(unavailable("device offline"));
                           });
  auto r = do_call("fail", {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.status().message(), "device offline");
}

TEST_F(SoapRpcTest, AsyncHandler) {
  service->register_method("slow", [this](const NamedValues&,
                                          CallResultFn done) {
    sched.after(sim::seconds(1), [done] { done(Value("done")); });
  });
  sim::SimTime start = sched.now();
  auto r = do_call("slow", {});
  ASSERT_TRUE(r.is_ok());
  EXPECT_GE(sched.now() - start, sim::seconds(1));
}

TEST_F(SoapRpcTest, GetRejected) {
  http::HttpClient raw(net, client_node->id());
  std::optional<Result<http::Response>> result;
  http::Request req;
  req.method = "GET";
  req.target = "/svc";
  raw.request({server_node->id(), 80}, std::move(req),
              [&](Result<http::Response> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(result->value().status, 405);
}

TEST_F(SoapRpcTest, MalformedEnvelopeRejected) {
  http::HttpClient raw(net, client_node->id());
  std::optional<Result<http::Response>> result;
  http::Request req;
  req.method = "POST";
  req.target = "/svc";
  req.body = "this is not xml";
  raw.request({server_node->id(), 80}, std::move(req),
              [&](Result<http::Response> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(result->value().status, 400);
}

// The service parses each request into a pooled envelope. A request
// whose decode fails midway (a bad xsd:long in the third map of a
// list) leaves a partly decoded tree in that envelope, and the next
// call it serves must still decode exactly.
TEST_F(SoapRpcTest, FailedDecodeLeavesThePooledEnvelopeClean) {
  service->register_method("echo",
                           [](const NamedValues& params, CallResultFn done) {
                             done(params.empty() ? Value() : params[0].second);
                           });
  ValueList maps;
  for (int m = 0; m < 4; ++m) {
    maps.emplace_back(ValueMap{
        {"id", Value(m)},
        {"samples", Value(ValueList{Value(m * 10), Value(m * 10 + 7)})}});
  }
  const Value good(std::move(maps));
  std::string bad = build_call("urn:test", "echo", {{"v", good}});
  const auto third = bad.find(">27<");
  ASSERT_NE(third, std::string::npos);
  bad.replace(third, 4, ">2x<");

  http::HttpClient raw(net, client_node->id());
  std::optional<Result<http::Response>> result;
  http::Request req;
  req.method = "POST";
  req.target = "/svc";
  req.body = std::move(bad);
  raw.request({server_node->id(), 80}, std::move(req),
              [&](Result<http::Response> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(result->value().status, 400);

  for (int i = 0; i < 2; ++i) {
    auto r = do_call("echo", {{"v", good}});
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value(), good);
  }
}

TEST_F(SoapRpcTest, UnregisterMethodRemoves) {
  service->register_method("temp", [](const NamedValues&, CallResultFn done) {
    done(Value(1));
  });
  EXPECT_TRUE(service->has_method("temp"));
  ASSERT_TRUE(do_call("temp", {}).is_ok());
  service->unregister_method("temp");
  EXPECT_FALSE(service->has_method("temp"));
  EXPECT_FALSE(do_call("temp", {}).is_ok());
}

TEST_F(SoapRpcTest, TwoServicesOnOneHttpServer) {
  SoapService other(*http_server, "/other");
  service->register_method("who", [](const NamedValues&, CallResultFn done) {
    done(Value("svc"));
  });
  other.register_method("who", [](const NamedValues&, CallResultFn done) {
    done(Value("other"));
  });
  SoapClient client(net, client_node->id());
  std::string got_svc, got_other;
  client.call({server_node->id(), 80}, "/svc", "urn:t", "who", {},
              [&](Result<Value> r) { got_svc = r.value().as_string(); });
  client.call({server_node->id(), 80}, "/other", "urn:t", "who", {},
              [&](Result<Value> r) { got_other = r.value().as_string(); });
  sched.run();
  EXPECT_EQ(got_svc, "svc");
  EXPECT_EQ(got_other, "other");
}

TEST_F(SoapRpcTest, CallCounters) {
  service->register_method("c", [](const NamedValues&, CallResultFn done) {
    done(Value(1));
  });
  do_call("c", {});
  do_call("c", {});
  EXPECT_EQ(service->calls_handled(), 2u);
}

TEST_F(SoapRpcTest, UnreachableServerSurfacesError) {
  SoapClient client(net, client_node->id());
  std::optional<Result<Value>> result;
  server_node->set_up(false);
  client.call({server_node->id(), 80}, "/svc", "urn:t", "x", {},
              [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
}

// A raw POST of one SOAP call: the test reads the response envelope
// itself, so it sees the response element the service wrote.
void post_call(http::HttpClient& raw, net::Endpoint dest,
               const std::string& ns, const std::string& method,
               std::optional<Result<http::Response>>& out) {
  http::Request req;
  req.method = "POST";
  req.target = "/svc";
  req.body = build_call(ns, method, {});
  raw.request(dest, std::move(req),
              [&out](Result<http::Response>& r) { out = std::move(r); });
}

TEST_F(SoapRpcTest, CompletionOutlivesService) {
  // Both handlers park their completions; the service is destroyed
  // before either runs. One answers late, the other is dropped
  // unanswered: the dispatch state they hold must outlive the service
  // (asan checks the late answer and the drop alike).
  std::vector<CallResultFn> parked;
  service->register_method("park", [&](const NamedValues&, CallResultFn done) {
    parked.push_back(std::move(done));
  });
  SoapClient answered(net, client_node->id());
  SoapClient dropped(net, client_node->id());
  std::optional<Result<Value>> answered_result;
  std::optional<Result<Value>> dropped_result;
  answered.call({server_node->id(), 80}, "/svc", "urn:test", "park", {},
                [&](Result<Value> r) { answered_result = std::move(r); });
  dropped.call({server_node->id(), 80}, "/svc", "urn:test", "park", {},
               [&](Result<Value> r) { dropped_result = std::move(r); });
  sched.run_for(sim::seconds(1));
  ASSERT_EQ(parked.size(), 2u);
  service.reset();
  parked[0](Value("late"));
  parked.clear();
  sched.run();
  ASSERT_TRUE(answered_result.has_value());
  if (answered_result->is_ok()) {
    EXPECT_EQ(answered_result->value(), Value("late"));
  }
  ASSERT_TRUE(dropped_result.has_value());
  EXPECT_FALSE(dropped_result->is_ok());
}

TEST_F(SoapRpcTest, InterleavedCompletionsKeepTheirOwnState) {
  // Two calls to different methods in flight on one service (one HTTP
  // client each: a connection carries one request at a time), answered
  // in reverse order. Each reply names its own method and carries its
  // own value.
  std::vector<CallResultFn> parked;
  auto park = [&](const NamedValues&, CallResultFn done) {
    parked.push_back(std::move(done));
  };
  service->register_method("getTransportState", park);
  service->register_method("setPowerStateOfDevice", park);
  http::HttpClient first(net, client_node->id());
  http::HttpClient second(net, client_node->id());
  std::optional<Result<http::Response>> first_result;
  std::optional<Result<http::Response>> second_result;
  const net::Endpoint dest{server_node->id(), 80};
  post_call(first, dest, "urn:hcm:LaserdiscPlayer", "getTransportState",
            first_result);
  post_call(second, dest, "urn:hcm:PowerController", "setPowerStateOfDevice",
            second_result);
  sched.run_for(sim::seconds(1));
  ASSERT_EQ(parked.size(), 2u);
  EXPECT_EQ(service->dispatch_slots(), 2u);
  parked[1](Value("second"));
  parked[0](Value("first"));
  parked.clear();
  sched.run();
  ASSERT_TRUE(first_result.has_value() && first_result->is_ok());
  ASSERT_TRUE(second_result.has_value() && second_result->is_ok());
  const std::string& first_body = first_result->value().body;
  const std::string& second_body = second_result->value().body;
  EXPECT_NE(first_body.find("<m:getTransportStateResponse "
                            "xmlns:m=\"urn:hcm:LaserdiscPlayer\">"),
            std::string::npos)
      << first_body;
  EXPECT_NE(second_body.find("<m:setPowerStateOfDeviceResponse "
                             "xmlns:m=\"urn:hcm:PowerController\">"),
            std::string::npos)
      << second_body;
  Envelope env;
  ASSERT_TRUE(parse_envelope_into(first_body, env).is_ok());
  EXPECT_EQ(env.method, "getTransportStateResponse");
  ASSERT_EQ(env.params.size(), 1u);
  EXPECT_EQ(env.params[0].second, Value("first"));
  ASSERT_TRUE(parse_envelope_into(second_body, env).is_ok());
  EXPECT_EQ(env.method, "setPowerStateOfDeviceResponse");
  ASSERT_EQ(env.params.size(), 1u);
  EXPECT_EQ(env.params[0].second, Value("second"));
}

TEST_F(SoapRpcTest, DispatchSlotsStayAtPeakInFlight) {
  // Slots are recycled: after two calls in flight at once and then
  // 1,000 sequential ones, the table holds two slots. A handler that
  // drops its completion unanswered returns its slot too, and a copy
  // of an answered completion answers nothing more.
  std::vector<CallResultFn> parked;
  service->register_method("park", [&](const NamedValues&, CallResultFn done) {
    parked.push_back(std::move(done));
  });
  service->register_method("drop", [](const NamedValues&, CallResultFn) {});
  service->register_method("echo", [](NamedValues& params, CallResultFn done) {
    done(std::move(params[0].second));
  });
  const net::Endpoint dest{server_node->id(), 80};
  SoapClient a(net, client_node->id());
  SoapClient b(net, client_node->id());
  int answered = 0;
  a.call(dest, "/svc", "urn:test", "park", {},
         [&](Result<Value> r) { answered += r.is_ok() ? 1 : 0; });
  b.call(dest, "/svc", "urn:test", "park", {},
         [&](Result<Value> r) { answered += r.is_ok() ? 1 : 0; });
  sched.run_for(sim::seconds(1));
  ASSERT_EQ(parked.size(), 2u);
  for (auto& done : parked) {
    const CallResultFn copy = done;
    done(Value(0));
    copy(Value(1));
  }
  parked.clear();
  sched.run();
  EXPECT_EQ(answered, 2);
  EXPECT_EQ(service->dispatch_slots(), 2u);

  SoapClient client(net, client_node->id(),
                    http::HttpClient::Options{.keep_alive = true});
  std::int64_t sum = 0;
  const NamedValues params{{"x", Value(1)}};
  for (int i = 0; i < 1000; ++i) {
    client.call(dest, "/svc", "urn:test", i == 500 ? "drop" : "echo", params,
                [&](Result<Value> r) {
                  if (r.is_ok()) sum += r.value().as_int();
                });
    sched.run();
  }
  EXPECT_EQ(sum, 999);
  EXPECT_EQ(service->dispatch_slots(), 2u);
}

}  // namespace
}  // namespace hcm::soap
