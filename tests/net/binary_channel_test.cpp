#include "net/binary_channel.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hcm::net {
namespace {

constexpr std::uint16_t kRawPort = 9100;
constexpr sim::Duration kCallTimeout = sim::seconds(30);

// Golden frames, length prefix included (layout: binary_channel.hpp).
// call("echo", "m", {42}) as the first call on a connection.
const Bytes kRequest = {
    0x00, 0x00, 0x00, 0x20,                          // length 32
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // id 1
    0x01,                                            // request
    0x00, 0x04, 'e', 'c', 'h', 'o',                  // service
    0x00, 0x01, 'm',                                 // method
    0x06, 0x00, 0x00, 0x00, 0x01,                    // list of 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a};  // int 42
// The same call under a fresh trace: the client span is span 1 of
// trace 2.
const Bytes kTracedRequest = {
    0x00, 0x00, 0x00, 0x30,                          // length 48
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // id 1
    0x81,                                            // traced request
    0x00, 0x04, 'e', 'c', 'h', 'o',                  // service
    0x00, 0x01, 'm',                                 // method
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,  // trace_id
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // span_id
    0x06, 0x00, 0x00, 0x00, 0x01,                    // list of 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a};  // int 42
// A one-way request with the same call: kind 4, no reply expected.
const Bytes kOneWayRequest = {
    0x00, 0x00, 0x00, 0x20,                          // length 32
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // id 1
    0x04,                                            // one-way request
    0x00, 0x04, 'e', 'c', 'h', 'o',                  // service
    0x00, 0x01, 'm',                                 // method
    0x06, 0x00, 0x00, 0x00, 0x01,                    // list of 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a};  // int 42
// The echo service's answer to kRequest.
const Bytes kOkReply = {
    0x00, 0x00, 0x00, 0x12,                          // length 18
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // id 1
    0x02,                                            // ok reply
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a};  // int 42
// unavailable("nope") in answer to call id 1.
const Bytes kErrorReply = {
    0x00, 0x00, 0x00, 0x12,                          // length 18
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // id 1
    0x03,                                            // error reply
    0x04,                                            // kUnavailable
    0x00, 0x00, 0x00, 0x04, 'n', 'o', 'p', 'e'};     // message

// `payload` behind its true length prefix.
Bytes framed(const Bytes& payload) {
  Bytes out;
  build_frame([&](BlockStream& f) { f.put_raw(payload); }).append_to(out);
  return out;
}

// Hostile frames common to both ends: every truncation of `goldens`
// (prefix rewritten to match, so each arrives as a whole frame), each
// golden with a trailing byte, unknown kinds, and a 16 MiB + 1 prefix.
std::vector<Bytes> hostile_frames(std::initializer_list<const Bytes*> goldens) {
  std::vector<Bytes> out;
  for (const Bytes* golden : goldens) {
    const Bytes payload(golden->begin() + 4, golden->end());
    for (std::size_t n = 0; n < payload.size(); ++n) {
      out.push_back(framed(Bytes(payload.begin(), payload.begin() + n)));
    }
    Bytes trailing = payload;
    trailing.push_back(0);
    out.push_back(framed(trailing));
  }
  for (std::uint8_t kind : {0x00, 0x05, 0x7f, 0x82, 0x83}) {
    out.push_back(framed({0, 0, 0, 0, 0, 0, 0, 1, kind}));
  }
  out.push_back({0x01, 0x00, 0x00, 0x01});  // kMaxMessageBytes + 1
  return out;
}

class BinaryChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node = &net.add_node("server");
    client_node = &net.add_node("client");
    auto& eth = net.add_ethernet("lan", sim::microseconds(200), 100'000'000);
    net.attach(*server_node, eth);
    net.attach(*client_node, eth);
    server = std::make_unique<BinaryRpcServer>(net, server_node->id(), 9000,
                                               "binary");
    ASSERT_TRUE(server->start().is_ok());
    client = new_client();
  }

  std::unique_ptr<BinaryRpcClient> new_client() {
    return std::make_unique<BinaryRpcClient>(net, client_node->id(), "binary",
                                             kCallTimeout);
  }

  Result<Value> call(const std::string& svc, const std::string& method,
                     const ValueList& args) {
    std::optional<Result<Value>> result;
    client->call({server_node->id(), 9000}, svc, method, args,
                 [&](Result<Value> r) { result = std::move(r); });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no result"));
  }

  // Connects a raw stream to the server; what it receives collects in
  // raw_in, and raw_closed flips when the server closes it.
  net::StreamPtr raw_connect() {
    net::StreamPtr s;
    net.connect(client_node->id(), {server_node->id(), 9000},
                [&s](Result<net::StreamPtr> r) { s = r.value(); });
    sched.run();
    raw_in.clear();
    raw_closed = false;
    s->set_on_data([this](BlockStream&& d) { d.append_to(raw_in); });
    s->set_on_close([this] { raw_closed = true; });
    raw_streams.push_back(s);
    return s;
  }

  // A raw peer on kRawPort: records what clients send in raw_in and
  // answers each delivery with raw_answer, whole or byte by byte.
  void raw_listen() {
    ASSERT_TRUE(server_node
                    ->listen(kRawPort,
                             [this](net::StreamPtr s) {
                               net::Stream* raw = s.get();
                               raw_streams.push_back(s);
                               s->set_on_data([this, raw](BlockStream&& d) {
                                 d.append_to(raw_in);
                                 send(*raw, raw_answer);
                               });
                             })
                    .is_ok());
  }

  void send(net::Stream& s, const Bytes& wire) {
    if (!bytewise) {
      BlockStream out;
      out.append(wire);
      s.send(std::move(out));
      return;
    }
    for (std::uint8_t b : wire) {
      BlockStream out;
      out.put(static_cast<char>(b));
      s.send(std::move(out));
    }
  }

  // One call to the raw peer (answering with raw_answer).
  Result<Value> call_raw() {
    std::optional<Result<Value>> result;
    client->call({server_node->id(), kRawPort}, "echo", "m", {Value(42)},
                 [&](Result<Value> r) { result = std::move(r); });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no result"));
  }

  sim::Scheduler sched;
  net::Network net{sched};
  std::vector<net::StreamPtr> raw_streams;
  Bytes raw_in;
  Bytes raw_answer;
  bool raw_closed = false;
  bool bytewise = false;
  net::Node* server_node = nullptr;
  net::Node* client_node = nullptr;
  std::unique_ptr<BinaryRpcServer> server;
  std::unique_ptr<BinaryRpcClient> client;
};

TEST_F(BinaryChannelTest, EchoRoundTrip) {
  server->register_service("echo", [](const std::string&,
                                      const ValueList& args,
                                      InvokeResultFn done) {
    done(args.empty() ? Value() : args[0]);
  });
  auto r = call("echo", "m", {Value(ValueMap{{"k", Value(1)}})});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), Value(ValueMap{{"k", Value(1)}}));
}

TEST_F(BinaryChannelTest, ErrorsPropagate) {
  server->register_service("failing", [](const std::string&,
                                         const ValueList&,
                                         InvokeResultFn done) {
    done(unavailable("nope"));
  });
  auto r = call("failing", "m", {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.status().message(), "nope");
}

TEST_F(BinaryChannelTest, UnknownServiceFails) {
  auto r = call("ghost", "m", {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(BinaryChannelTest, ConnectionReusedAcrossCalls) {
  int served = 0;
  server->register_service("count", [&](const std::string&, const ValueList&,
                                        InvokeResultFn done) {
    ++served;
    done(Value(served));
  });
  EXPECT_EQ(call("count", "m", {}).value(), Value(1));
  EXPECT_EQ(call("count", "m", {}).value(), Value(2));
  EXPECT_EQ(server->calls_served(), 2u);
}

TEST_F(BinaryChannelTest, ConcurrentCallsMultiplex) {
  server->register_service("echo", [](const std::string&,
                                      const ValueList& args,
                                      InvokeResultFn done) {
    done(args[0]);
  });
  std::vector<std::int64_t> results;
  for (int i = 0; i < 20; ++i) {
    client->call({server_node->id(), 9000}, "echo", "m", {Value(i)},
                 [&](Result<Value> r) {
                   ASSERT_TRUE(r.is_ok());
                   results.push_back(r.value().as_int());
                 });
  }
  sched.run();
  ASSERT_EQ(results.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(results[i], i);
}

TEST_F(BinaryChannelTest, WireIsCompactComparedToSoap) {
  server->register_service("echo", [](const std::string&,
                                      const ValueList& args,
                                      InvokeResultFn done) {
    done(args[0]);
  });
  ASSERT_TRUE(call("echo", "m", {Value(42)}).is_ok());
  // A one-int call + reply over the binary channel is far below the
  // ~700 bytes SOAP needs for the same exchange.
  auto& eth = *net.segments()[0];
  EXPECT_LT(eth.bytes_carried(), 500u);
  EXPECT_GT(eth.bytes_carried(), 0u);
}

TEST_F(BinaryChannelTest, ServerDownFailsCall) {
  server->register_service("echo", [](const std::string&,
                                      const ValueList& args,
                                      InvokeResultFn done) {
    done(args[0]);
  });
  server_node->set_up(false);
  auto r = call("echo", "m", {Value(1)});
  EXPECT_FALSE(r.is_ok());
}

TEST_F(BinaryChannelTest, GoldenRequestFrame) {
  raw_listen();
  client->call({server_node->id(), kRawPort}, "echo", "m", {Value(42)},
               [](Result<Value>) {});
  sched.run();
  EXPECT_EQ(to_hex(raw_in), to_hex(kRequest));
}

TEST_F(BinaryChannelTest, GoldenTracedRequestFrame) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  raw_listen();
  client->call({server_node->id(), kRawPort}, "echo", "m", {Value(42)},
               [](Result<Value>) {});
  sched.run();
  tracer.set_enabled(false);
  tracer.clear();
  EXPECT_EQ(to_hex(raw_in), to_hex(kTracedRequest));
}

TEST_F(BinaryChannelTest, GoldenOneWayRequestFrame) {
  raw_listen();
  std::optional<Result<Value>> sent;
  client->call_one_way({server_node->id(), kRawPort}, "echo", "m",
                       {Value(42)},
                       [&](Result<Value> r) { sent = std::move(r); });
  sched.run();
  EXPECT_EQ(to_hex(raw_in), to_hex(kOneWayRequest));
  ASSERT_TRUE(sent.has_value());
  EXPECT_TRUE(sent->is_ok());
}

TEST_F(BinaryChannelTest, OneWayRequestIsServedWithoutReply) {
  std::vector<std::int64_t> seen;
  server->register_service("echo", [&](const std::string&,
                                       const ValueList& args,
                                       InvokeResultFn done) {
    seen.push_back(args[0].as_int());
    done(args[0]);
  });
  auto s = raw_connect();
  send(*s, kOneWayRequest);
  sched.run();
  EXPECT_EQ(seen, std::vector<std::int64_t>{42});
  EXPECT_TRUE(raw_in.empty());
  EXPECT_FALSE(raw_closed);
  EXPECT_EQ(server->rejected(), 0u);
}

TEST_F(BinaryChannelTest, OneWayToDeadPeerFailsWithConnectError) {
  server_node->set_up(false);
  std::optional<Result<Value>> sent;
  client->call_one_way({server_node->id(), 9000}, "echo", "m", {Value(1)},
                       [&](Result<Value> r) { sent = std::move(r); });
  sched.run();
  ASSERT_TRUE(sent.has_value());
  EXPECT_FALSE(sent->is_ok());
}

TEST_F(BinaryChannelTest, SilentHandlerTimesOutAndLateReplyIsDropped) {
  InvokeResultFn held;
  server->register_service("slow", [&](const std::string&, const ValueList&,
                                       InvokeResultFn done) {
    held = std::move(done);
  });
  int completions = 0;
  std::optional<Result<Value>> result;
  sim::SimTime done_at = 0;
  client->call({server_node->id(), 9000}, "slow", "m", {},
               [&](Result<Value> r) {
                 ++completions;
                 result = std::move(r);
                 done_at = sched.now();
               });
  sched.run_for(kCallTimeout - 1);
  EXPECT_FALSE(result.has_value());
  sched.run_for(1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status().code(), StatusCode::kTimeout);
  EXPECT_EQ(done_at, kCallTimeout);
  // The reply arrives after the timeout: dropped like an unknown id, and
  // the connection keeps serving.
  ASSERT_TRUE(held);
  held(Value(1));
  sched.run();
  EXPECT_EQ(completions, 1);
  server->register_service("echo", [](const std::string&,
                                      const ValueList& args,
                                      InvokeResultFn done) {
    done(args[0]);
  });
  EXPECT_EQ(call("echo", "m", {Value(3)}).value(), Value(3));
}

TEST_F(BinaryChannelTest, ReplyCancelsTheTimer) {
  server->register_service("echo", [](const std::string&,
                                      const ValueList& args,
                                      InvokeResultFn done) {
    done(args[0]);
  });
  ASSERT_TRUE(call("echo", "m", {Value(1)}).is_ok());
  // sched.run() returned: no timer outlived the reply.
  EXPECT_LT(sched.now(), kCallTimeout);
}

TEST_F(BinaryChannelTest, GoldenOkReplyFrame) {
  server->register_service("echo", [](const std::string&,
                                      const ValueList& args,
                                      InvokeResultFn done) {
    done(args[0]);
  });
  auto s = raw_connect();
  send(*s, kRequest);
  sched.run();
  EXPECT_EQ(to_hex(raw_in), to_hex(kOkReply));
}

TEST_F(BinaryChannelTest, GoldenErrorReplyFrame) {
  server->register_service("echo", [](const std::string&, const ValueList&,
                                      InvokeResultFn done) {
    done(unavailable("nope"));
  });
  auto s = raw_connect();
  send(*s, kRequest);
  sched.run();
  EXPECT_EQ(to_hex(raw_in), to_hex(kErrorReply));
}

TEST_F(BinaryChannelTest, GoldenRepliesDecodeOnTheClient) {
  raw_listen();
  raw_answer = kOkReply;
  auto ok = call_raw();
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), Value(42));
  client = new_client();
  raw_answer = kErrorReply;
  auto err = call_raw();
  EXPECT_EQ(err.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(err.status().message(), "nope");
}

TEST_F(BinaryChannelTest, LargeArgumentCrossesBlockSeams) {
  // 48 KB spans three 16 KB pooled blocks on encode and arrives as a
  // multi-block chain, so the server decodes it from the scratch copy.
  server->register_service("echo", [](const std::string&,
                                      const ValueList& args,
                                      InvokeResultFn done) {
    done(args[0]);
  });
  std::string body(48 * 1024, ' ');
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>('a' + i % 26);
  }
  auto r = call("echo", "m", {Value(body), Value(7)});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), Value(body));
  EXPECT_EQ(call("echo", "m", {Value(1)}).value(), Value(1));
}

TEST_F(BinaryChannelTest, ServerRejectsHostileFrames) {
  server->register_service("echo", [](const std::string&,
                                      const ValueList& args,
                                      InvokeResultFn done) {
    done(args[0]);
  });
  auto cases = hostile_frames({&kRequest, &kTracedRequest, &kOneWayRequest});
  // Names that run past the frame, and replies sent to a server.
  cases.push_back(framed({0, 0, 0, 0, 0, 0, 0, 1, 0x01, 0x00, 0xff, 'e'}));
  cases.push_back(framed(
      {0, 0, 0, 0, 0, 0, 0, 1, 0x01, 0x00, 0x01, 'e', 0x00, 0xff, 'm'}));
  cases.push_back(kOkReply);
  cases.push_back(kErrorReply);
  for (bool by_byte : {false, true}) {
    bytewise = by_byte;
    for (const Bytes& wire : cases) {
      SCOPED_TRACE(to_hex(wire) + (by_byte ? " byte by byte" : ""));
      const auto rejected = server->rejected();
      auto s = raw_connect();
      send(*s, wire);
      sched.run();
      EXPECT_EQ(server->rejected(), rejected + 1);
      EXPECT_TRUE(raw_closed);
      EXPECT_TRUE(raw_in.empty());
    }
  }
  // The server still serves well-formed callers afterwards.
  EXPECT_EQ(call("echo", "m", {Value(5)}).value(), Value(5));
}

TEST_F(BinaryChannelTest, ClientRejectsHostileFramesAndFailsPendingCalls) {
  raw_listen();
  auto& rejected = obs::Registry::global().counter("binary.client.rejected");
  auto cases = hostile_frames({&kOkReply, &kErrorReply});
  // Error replies whose code is kOk or not a StatusCode at all.
  for (std::uint8_t code : {0x00, 0x7f}) {
    Bytes bad_code = kErrorReply;
    bad_code[13] = code;
    cases.push_back(bad_code);
  }
  cases.push_back(kRequest);  // requests sent to a client
  cases.push_back(kOneWayRequest);
  for (bool by_byte : {false, true}) {
    bytewise = by_byte;
    for (const Bytes& wire : cases) {
      SCOPED_TRACE(to_hex(wire) + (by_byte ? " byte by byte" : ""));
      client = new_client();
      const auto before = rejected.value();
      raw_answer = wire;
      auto r = call_raw();
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      EXPECT_EQ(rejected.value(), before + 1);
    }
  }
}

}  // namespace
}  // namespace hcm::net
