#include "havi/messaging.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hcm::havi {
namespace {

std::uint64_t rejected_count() {
  const obs::Counter* c =
      obs::Registry::global().find_counter("havi.msg.rejected");
  return c == nullptr ? 0 : c->value();
}

// A message header written by hand, for the rogue node's messages.
BufWriter raw_header(MessageKind kind, std::uint64_t id, Seid src,
                     Seid dst) {
  BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(kind));
  w.put_u64(id);
  w.put_u32(src.node);
  w.put_u32(src.handle);
  w.put_u32(dst.node);
  w.put_u32(dst.handle);
  return w;
}

// Value nested `depth` lists deep around a null.
Value nested(int depth) {
  Value v;
  for (int i = 0; i < depth; ++i) v = Value(ValueList{std::move(v)});
  return v;
}

class HaviMessagingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_a = &net.add_node("fav");
    node_b = &net.add_node("vcr-device");
    bus = &net.add_ieee1394("firewire");
    net.attach(*node_a, *bus);
    net.attach(*node_b, *bus);
    ms_a = std::make_unique<MessagingSystem>(net, node_a->id());
    ms_b = std::make_unique<MessagingSystem>(net, node_b->id());
    ASSERT_TRUE(ms_a->start().is_ok());
    ASSERT_TRUE(ms_b->start().is_ok());
  }

  // Adds a raw node bound to the messaging port: it records every
  // datagram it receives and hands it to `answer`, if set.
  void add_rogue() {
    rogue = &net.add_node("rogue");
    net.attach(*rogue, *bus);
    ASSERT_TRUE(rogue
                    ->bind(kMessagingPort,
                           [this](net::Endpoint, const Bytes& data) {
                             received.push_back(data);
                             if (answer) answer(data);
                           })
                    .is_ok());
  }

  void rogue_send(const net::Node& to, Bytes data) {
    net.send_datagram({rogue->id(), kMessagingPort},
                      {to.id(), kMessagingPort}, std::move(data));
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* node_a = nullptr;
  net::Node* node_b = nullptr;
  net::Ieee1394Bus* bus = nullptr;
  std::unique_ptr<MessagingSystem> ms_a;
  std::unique_ptr<MessagingSystem> ms_b;
  net::Node* rogue = nullptr;
  std::vector<Bytes> received;
  std::function<void(const Bytes&)> answer;
};

TEST_F(HaviMessagingTest, SeidValueRoundTrip) {
  Seid seid{5, 17};
  auto decoded = Seid::from_value(seid.to_value());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), seid);
  EXPECT_FALSE(Seid::from_value(Value("x")).is_ok());
}

TEST_F(HaviMessagingTest, RemoteRequestReply) {
  Seid echo = ms_b->register_element(
      [](const std::string& op, const ValueList& args, InvokeResultFn done) {
        if (op == "echo") {
          done(args.empty() ? Value() : args[0]);
        } else {
          done(not_found("?"));
        }
      });
  Seid self = ms_a->register_element(nullptr);
  std::optional<Result<Value>> result;
  ms_a->send_request(self, echo, "echo", {Value("hello")},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(result->value(), Value("hello"));
}

TEST_F(HaviMessagingTest, LocalDeliveryWorks) {
  Seid echo = ms_a->register_element(
      [](const std::string&, const ValueList& args, InvokeResultFn done) {
        done(args[0]);
      });
  Seid self = ms_a->register_element(nullptr);
  std::optional<Result<Value>> result;
  ms_a->send_request(self, echo, "x", {Value(3)},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(result->value(), Value(3));
}

TEST_F(HaviMessagingTest, ErrorsPropagate) {
  Seid failing = ms_b->register_element(
      [](const std::string&, const ValueList&, InvokeResultFn done) {
        done(unavailable("tape jammed"));
      });
  Seid self = ms_a->register_element(nullptr);
  std::optional<Result<Value>> result;
  ms_a->send_request(self, failing, "op", {},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_FALSE(result->is_ok());
  EXPECT_EQ(result->status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(result->status().message(), "tape jammed");
}

TEST_F(HaviMessagingTest, UnknownDestinationFails) {
  Seid self = ms_a->register_element(nullptr);
  std::optional<Result<Value>> result;
  ms_a->send_request(self, Seid{node_b->id(), 9999}, "op", {},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_FALSE(result->is_ok());
  EXPECT_EQ(result->status().code(), StatusCode::kNotFound);
}

TEST_F(HaviMessagingTest, RequestTimesOutWhenBusDown) {
  Seid echo = ms_b->register_element(
      [](const std::string&, const ValueList&, InvokeResultFn done) {
        done(Value(1));
      });
  Seid self = ms_a->register_element(nullptr);
  bus->set_up(false);
  std::optional<Result<Value>> result;
  ms_a->send_request(self, echo, "x", {},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->is_ok());
  EXPECT_EQ(result->status().code(), StatusCode::kTimeout);
}

TEST_F(HaviMessagingTest, NotificationIsFireAndForget) {
  int received = 0;
  ms_b->register_element(
      [&](const std::string& op, const ValueList&, InvokeResultFn done) {
        if (op == "tick") ++received;
        done(Value());
      });
  // Handles are deterministic: first user element gets kFirstUserHandle.
  Seid target{node_b->id(), kFirstUserHandle};
  Seid self = ms_a->register_element(nullptr);
  ms_a->send_notification(self, target, "tick", {});
  ms_a->send_notification(self, target, "tick", {});
  sched.run();
  EXPECT_EQ(received, 2);
}

TEST_F(HaviMessagingTest, SystemElementHandleConflict) {
  auto first = ms_a->register_system_element(kRegistryHandle, nullptr);
  ASSERT_TRUE(first.is_ok());
  auto second = ms_a->register_system_element(kRegistryHandle, nullptr);
  EXPECT_FALSE(second.is_ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(HaviMessagingTest, UnregisterStopsDispatch) {
  Seid echo = ms_b->register_element(
      [](const std::string&, const ValueList&, InvokeResultFn done) {
        done(Value(1));
      });
  ms_b->unregister_element(echo);
  Seid self = ms_a->register_element(nullptr);
  std::optional<Result<Value>> result;
  ms_a->send_request(self, echo, "x", {},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_FALSE(result->is_ok());
}

// Golden messages, one per kind. Nodes are fav=1, vcr-device=2,
// rogue=3; every element here is its node's first user element (16).
const Bytes kGoldenRequest = {
    0x01,                                            // kind: request
    0, 0, 0, 0, 0, 0, 0, 1,                          // id 1
    0, 0, 0, 1, 0, 0, 0, 0x10,                       // src 1.16
    0, 0, 0, 3, 0, 0, 0, 0x10,                       // dst 3.16
    0, 4, 'e', 'c', 'h', 'o',                        // op
    0x06, 0, 0, 0, 1,                                // args: list of 1
    0x04, 0, 0, 0, 2, 'h', 'i'};                     //   "hi"
const Bytes kGoldenNotification = {
    0x02,                                            // kind: notification
    0, 0, 0, 0, 0, 0, 0, 0,                          // id 0
    0, 0, 0, 1, 0, 0, 0, 0x10,                       // src 1.16
    0, 0, 0, 3, 0, 0, 0, 0x10,                       // dst 3.16
    0, 4, 't', 'i', 'c', 'k',                        // op
    0x06, 0, 0, 0, 1,                                // args: list of 1
    0x02, 0, 0, 0, 0, 0, 0, 0, 7};                   //   7
const Bytes kGoldenReplyOk = {
    0x03,                                            // kind: reply-ok
    0, 0, 0, 0, 0, 0, 0, 1,                          // id 1
    0, 0, 0, 2, 0, 0, 0, 0x10,                       // src 2.16
    0, 0, 0, 3, 0, 0, 0, 0x10,                       // dst 3.16
    0x04, 0, 0, 0, 2, 'h', 'i'};                     // "hi"
const Bytes kGoldenReplyError = {
    0x04,                                            // kind: reply-error
    0, 0, 0, 0, 0, 0, 0, 1,                          // id 1
    0, 0, 0, 2, 0, 0, 0, 0x10,                       // src 2.16
    0, 0, 0, 3, 0, 0, 0, 0x10,                       // dst 3.16
    0x04,                                            // kUnavailable
    0, 0, 0, 3, 'j', 'a', 'm'};                      // message

TEST_F(HaviMessagingTest, GoldenRequestAndNotification) {
  add_rogue();
  Seid self = ms_a->register_element(nullptr);
  const Seid target{rogue->id(), kFirstUserHandle};
  ms_a->send_request(self, target, "echo", {Value("hi")},
                     [](Result<Value>) {});
  ms_a->send_notification(self, target, "tick", {Value(7)});
  sched.run_for(sim::milliseconds(1));
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(to_hex(received[0]), to_hex(kGoldenRequest));
  EXPECT_EQ(to_hex(received[1]), to_hex(kGoldenNotification));
}

TEST_F(HaviMessagingTest, GoldenReplies) {
  add_rogue();
  ms_b->register_element(
      [](const std::string& op, const ValueList& args, InvokeResultFn done) {
        if (op == "echo") {
          done(args[0]);
        } else {
          done(unavailable("jam"));
        }
      });
  const Seid from{rogue->id(), kFirstUserHandle};
  const Seid to{node_b->id(), kFirstUserHandle};
  for (const char* op : {"echo", "fail"}) {
    BufWriter w = raw_header(MessageKind::kRequest, 1, from, to);
    w.put_u16(4);
    w.put_raw(std::string_view(op));
    encode_value(ValueList{Value("hi")}, w);
    rogue_send(*node_b, w.take());
  }
  sched.run_for(sim::milliseconds(1));
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(to_hex(received[0]), to_hex(kGoldenReplyOk));
  EXPECT_EQ(to_hex(received[1]), to_hex(kGoldenReplyError));
}

// Every truncation of each golden, each golden plus a trailing byte, an
// unknown kind: each is dropped and counted, and reaches no handler and
// no pending call. The goldens themselves are then delivered intact.
TEST_F(HaviMessagingTest, HostileMessagesAreRejected) {
  add_rogue();
  int handled = 0;
  ms_b->register_element(
      [&](const std::string&, const ValueList&, InvokeResultFn done) {
        ++handled;
        done(Value());
      });
  // Request id 1 from 1.16 to the rogue stays pending, so the reply
  // goldens (id 1) sent to node 1 would complete it if they decoded.
  Seid self = ms_a->register_element(nullptr);
  std::optional<Result<Value>> result;
  ms_a->send_request(self, Seid{rogue->id(), kFirstUserHandle}, "echo",
                     {Value("hi")},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run_for(sim::milliseconds(1));

  struct Target {
    const Bytes& golden;
    net::Node* node;  // requests go to node 2's element, replies to node 1
  };
  const Target targets[] = {{kGoldenRequest, node_b},
                            {kGoldenNotification, node_b},
                            {kGoldenReplyOk, node_a},
                            {kGoldenReplyError, node_a}};
  auto expect_rejected = [&](net::Node& to, Bytes data,
                             const std::string& what) {
    const std::uint64_t before = rejected_count();
    rogue_send(to, std::move(data));
    sched.run_for(sim::milliseconds(1));
    EXPECT_EQ(rejected_count() - before, 1u) << what;
  };
  for (const Target& t : targets) {
    for (std::size_t n = 0; n < t.golden.size(); ++n) {
      expect_rejected(*t.node, Bytes(t.golden.begin(), t.golden.begin() + n),
                      to_hex(t.golden) + " cut to " + std::to_string(n));
    }
    Bytes longer = t.golden;
    longer.push_back(0);
    expect_rejected(*t.node, longer, to_hex(t.golden) + " + 1 byte");
  }
  for (std::uint8_t kind : {0, 5, 0xFF}) {
    Bytes unknown = kGoldenRequest;
    unknown[0] = kind;
    expect_rejected(*node_b, unknown, "kind " + std::to_string(kind));
  }
  EXPECT_EQ(handled, 0);
  EXPECT_FALSE(result.has_value());

  // Intact, the same bytes reach the handler and the pending call.
  const std::uint64_t before = rejected_count();
  rogue_send(*node_b, kGoldenRequest);
  rogue_send(*node_b, kGoldenNotification);
  rogue_send(*node_a, kGoldenReplyOk);
  sched.run_for(sim::milliseconds(1));
  EXPECT_EQ(rejected_count(), before);
  EXPECT_EQ(handled, 2);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(result->value(), Value("hi"));
}

TEST_F(HaviMessagingTest, ArgsNestedPastTheDepthLimitAreRejected) {
  int handled = 0;
  Seid sink = ms_b->register_element(
      [&](const std::string&, const ValueList&, InvokeResultFn done) {
        ++handled;
        done(Value());
      });
  Seid self = ms_a->register_element(nullptr);
  // The args list is depth 0, so its element's innermost null sits at
  // depth kMaxValueDepth + 1: one level past the limit.
  std::optional<Result<Value>> result;
  const std::uint64_t before = rejected_count();
  ms_a->send_request(self, sink, "deep", {nested(kMaxValueDepth)},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  EXPECT_EQ(rejected_count() - before, 1u);
  EXPECT_EQ(handled, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status().code(), StatusCode::kTimeout);

  // At the limit the same request is served.
  result.reset();
  ms_a->send_request(self, sink, "deep", {nested(kMaxValueDepth - 1)},
                     [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  EXPECT_EQ(handled, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->is_ok());
}

// A rogue node answers with an error reply whose status code is not a
// failure code (0 is kOk; 12 and 99 are past kResourceExhausted). The
// reply is rejected, so the call fails by timing out instead of
// completing with an OK or unknown status.
TEST_F(HaviMessagingTest, ErrorReplyWithStatusCodeOutOfRangeIsRejected) {
  add_rogue();
  Seid self = ms_a->register_element(nullptr);
  for (std::uint8_t code : {0, 12, 99}) {
    answer = [&, code](const Bytes& request) {
      BufReader r(request);
      ASSERT_TRUE(r.u8().is_ok());
      auto id = r.u64();
      ASSERT_TRUE(id.is_ok());
      BufWriter w = raw_header(MessageKind::kReplyError, id.value(),
                               Seid{rogue->id(), kFirstUserHandle}, self);
      w.put_u8(code);
      w.put_string("x");
      rogue_send(*node_a, w.take());
    };
    std::optional<Result<Value>> result;
    const std::uint64_t before = rejected_count();
    ms_a->send_request(self, Seid{rogue->id(), kFirstUserHandle}, "op", {},
                       [&](Result<Value> r) { result = std::move(r); });
    sched.run();
    EXPECT_EQ(rejected_count() - before, 1u) << "code " << int{code};
    ASSERT_TRUE(result.has_value());
    ASSERT_FALSE(result->is_ok());
    EXPECT_EQ(result->status().code(), StatusCode::kTimeout);
  }
}

}  // namespace
}  // namespace hcm::havi
