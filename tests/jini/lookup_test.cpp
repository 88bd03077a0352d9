#include "jini/lookup.hpp"

#include <gtest/gtest.h>

#include "jini/registrar.hpp"
#include "obs/metrics.hpp"

namespace hcm::jini {
namespace {

InterfaceDesc echo_interface() {
  return InterfaceDesc{
      "Echo", {MethodDesc{"echo", {{"v", ValueType::kNull}},
                          ValueType::kNull, false}}};
}

class JiniStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lookup_node = &net.add_node("lookup-host");
    service_node = &net.add_node("appliance");
    client_node = &net.add_node("pc");
    eth = &net.add_ethernet("jini-lan", sim::microseconds(200), 100'000'000);
    net.attach(*lookup_node, *eth);
    net.attach(*service_node, *eth);
    net.attach(*client_node, *eth);

    lookup = std::make_unique<LookupService>(net, lookup_node->id());
    ASSERT_TRUE(lookup->start().is_ok());

    server = std::make_unique<net::BinaryRpcServer>(net, service_node->id(),
                                                    4170, "jini");
    ASSERT_TRUE(server->start().is_ok());
    server->register_service(
        "echo-1", [](const std::string& method, const ValueList& args,
                     InvokeResultFn done) {
          if (method == "echo") {
            done(args.empty() ? Value() : args[0]);
          } else {
            done(not_found("no method " + method));
          }
        });
  }

  ServiceItem echo_item() {
    ServiceItem item;
    item.service_id = "echo-1";
    item.name = "echo";
    item.interface = echo_interface();
    item.endpoint = server->endpoint();
    return item;
  }

  // Registers the echo service and waits for completion.
  std::unique_ptr<Registrar> join_echo(sim::Duration lease = sim::seconds(30)) {
    auto registrar = std::make_unique<Registrar>(
        net, service_node->id(), lookup->endpoint(), echo_item(), lease);
    std::optional<Status> result;
    registrar->join([&](const Status& s) { result = s; });
    sim::run_until_done(sched, [&] { return result.has_value(); });
    EXPECT_TRUE(result.has_value() && result->is_ok());
    return registrar;
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* lookup_node = nullptr;
  net::Node* service_node = nullptr;
  net::Node* client_node = nullptr;
  net::EthernetSegment* eth = nullptr;
  std::unique_ptr<LookupService> lookup;
  std::unique_ptr<net::BinaryRpcServer> server;
};

TEST_F(JiniStackTest, RegisterAndLookup) {
  auto registrar = join_echo();
  EXPECT_EQ(lookup->service_count(), 1u);

  LookupClient client(net, client_node->id(), lookup->endpoint());
  std::optional<Result<ServiceMatches>> found;
  client.lookup("Echo", {}, [&](auto r) { found = std::move(r); });
  sim::run_until_done(sched, [&] { return found.has_value(); });
  ASSERT_TRUE(found.has_value());
  ASSERT_TRUE(found->is_ok());
  ASSERT_EQ(found->value().items.size(), 1u);
  EXPECT_EQ(found->value().items[0].name, "echo");
}

TEST_F(JiniStackTest, LookupByWrongInterfaceReturnsEmpty) {
  auto registrar = join_echo();
  LookupClient client(net, client_node->id(), lookup->endpoint());
  std::optional<Result<ServiceMatches>> found;
  client.lookup("Tuner", {}, [&](auto r) { found = std::move(r); });
  sim::run_until_done(sched, [&] { return found.has_value(); });
  ASSERT_TRUE(found->is_ok());
  EXPECT_TRUE(found->value().items.empty());
}

TEST_F(JiniStackTest, AttributeFiltering) {
  auto item = echo_item();
  item.attributes["room"] = Value("kitchen");
  Registrar registrar(net, service_node->id(), lookup->endpoint(), item);
  std::optional<Status> joined;
  registrar.join([&](const Status& s) { joined = s; });
  sim::run_until_done(sched, [&] { return joined.has_value(); });

  LookupClient client(net, client_node->id(), lookup->endpoint());
  std::optional<Result<ServiceMatches>> kitchen, bedroom;
  client.lookup("Echo", {{"room", Value("kitchen")}},
                [&](auto r) { kitchen = std::move(r); });
  client.lookup("Echo", {{"room", Value("bedroom")}},
                [&](auto r) { bedroom = std::move(r); });
  sim::run_until_done(
      sched, [&] { return kitchen.has_value() && bedroom.has_value(); });
  EXPECT_EQ(kitchen->value().items.size(), 1u);
  EXPECT_TRUE(bedroom->value().items.empty());
}

TEST_F(JiniStackTest, EndToEndInvocation) {
  auto registrar = join_echo();
  LookupClient client(net, client_node->id(), lookup->endpoint());
  std::optional<Result<Value>> result;
  client.lookup("Echo", {}, [&](Result<ServiceMatches> items) {
    ASSERT_TRUE(items.is_ok());
    ASSERT_EQ(items.value().items.size(), 1u);
    // Proxy must outlive the call: heap-allocate and clean up in the cb.
    auto proxy = std::make_shared<Proxy>(net, client_node->id(),
                                         items.value().items[0]);
    proxy->invoke("echo", {Value("ping")}, [&result, proxy](Result<Value> r) {
      result = std::move(r);
    });
  });
  sim::run_until_done(sched, [&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok()) << result->status().to_string();
  EXPECT_EQ(result->value(), Value("ping"));
}

TEST_F(JiniStackTest, ProxyChecksInterfaceBeforeWire) {
  auto registrar = join_echo();
  Proxy proxy(net, client_node->id(), echo_item());
  std::optional<Result<Value>> result;
  proxy.invoke("noSuchMethod", {}, [&](Result<Value> r) { result = r; });
  sim::run_until_done(sched, [&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->is_ok());
  EXPECT_EQ(result->status().code(), StatusCode::kNotFound);
}

TEST_F(JiniStackTest, LeaseExpiresWithoutRenewal) {
  // Register directly (no Registrar auto-renew).
  auto proxy = lookup_proxy(net, service_node->id(), lookup->endpoint());
  std::optional<Result<Value>> grant;
  proxy->invoke(
      "register",
      {echo_item().to_value(),
       Value(static_cast<std::int64_t>(sim::seconds(10)))},
      [&](Result<Value> r) { grant = std::move(r); });
  sim::run_until_done(sched, [&] { return grant.has_value(); });
  ASSERT_TRUE(grant.has_value() && grant->is_ok());
  EXPECT_EQ(lookup->service_count(), 1u);
  sched.run_until(sched.now() + sim::seconds(11));
  EXPECT_EQ(lookup->service_count(), 0u);
}

TEST_F(JiniStackTest, RegistrarKeepsLeaseAlive) {
  auto registrar = join_echo(sim::seconds(10));
  sched.run_until(sched.now() + sim::seconds(60));
  EXPECT_EQ(lookup->service_count(), 1u);
  EXPECT_GT(registrar->renewals(), 0u);
}

TEST_F(JiniStackTest, CancelRemovesService) {
  auto registrar = join_echo();
  std::optional<Status> cancelled;
  registrar->cancel([&](const Status& s) { cancelled = s; });
  sim::run_until_done(sched, [&] { return cancelled.has_value(); });
  ASSERT_TRUE(cancelled.has_value() && cancelled->is_ok());
  EXPECT_EQ(lookup->service_count(), 0u);
}

TEST_F(JiniStackTest, ServiceEventsDelivered) {
  // Serve a listener object on the client node.
  net::BinaryRpcServer listener_server(net, client_node->id(), 4180, "jini");
  ASSERT_TRUE(listener_server.start().is_ok());
  std::vector<std::string> events;
  listener_server.register_service(
      "listener-1",
      [&](const std::string& method, const ValueList& args,
          InvokeResultFn done) {
        if (method == "serviceEvent" && !args.empty() &&
            args[0].is_string()) {
          events.push_back(args[0].as_string());
        }
        done(Value());
      });

  LookupClient client(net, client_node->id(), lookup->endpoint());
  std::optional<Result<LeaseGrant>> reg;
  client.notify({client_node->id(), 4180}, "listener-1",
                LookupService::kMaxLease,
                [&](Result<LeaseGrant> r) { reg = std::move(r); });
  sim::run_until_done(sched, [&] { return reg.has_value(); });
  ASSERT_TRUE(reg.has_value() && reg->is_ok());

  auto registrar = join_echo();
  std::optional<Status> cancelled;
  registrar->cancel([&](const Status& s) { cancelled = s; });
  sim::run_until_done(sched, [&] { return cancelled.has_value(); });
  sched.run_for(sim::seconds(1));  // let one-way events land
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], kEventRegistered);
  EXPECT_EQ(events[1], kEventRemoved);
}

// A listener object on the client node that records every
// serviceEvent's arguments.
struct RecordingListener {
  RecordingListener(net::Network& net, net::NodeId node, std::uint16_t port,
                    const std::string& id)
      : server(net, node, port, "jini") {
    EXPECT_TRUE(server.start().is_ok());
    server.register_service(
        id, [this](const std::string& method, const ValueList& args,
                   InvokeResultFn done) {
          if (method == "serviceEvent") events.push_back(args);
          done(Value());
        });
  }
  net::BinaryRpcServer server;
  std::vector<ValueList> events;
};

TEST_F(JiniStackTest, LapsedEventRegistrationStopsReceivingEvents) {
  RecordingListener listener(net, client_node->id(), 4180, "listener-1");
  LookupClient client(net, client_node->id(), lookup->endpoint());
  std::optional<Result<LeaseGrant>> reg;
  client.notify({client_node->id(), 4180}, "listener-1", sim::seconds(2),
                [&](Result<LeaseGrant> r) { reg = std::move(r); });
  sim::run_until_done(sched, [&] { return reg.has_value(); });
  ASSERT_TRUE(reg.has_value() && reg->is_ok());
  EXPECT_EQ(reg->value().duration, sim::seconds(2));
  EXPECT_EQ(lookup->listener_count(), 1u);

  auto registrar = join_echo();
  sched.run_for(sim::seconds(1));
  ASSERT_EQ(listener.events.size(), 1u);

  sched.run_for(sim::seconds(2));  // past the lease: the listener is gone
  EXPECT_EQ(lookup->listener_count(), 0u);
  std::optional<Status> cancelled;
  registrar->cancel([&](const Status& s) { cancelled = s; });
  sim::run_until_done(sched, [&] { return cancelled.has_value(); });
  sched.run_for(sim::seconds(1));
  EXPECT_EQ(listener.events.size(), 1u);

  std::optional<Result<LeaseRenewal>> renewed;
  client.renew(reg->value().id, sim::seconds(2),
               [&](Result<LeaseRenewal> r) { renewed = std::move(r); });
  sim::run_until_done(sched, [&] { return renewed.has_value(); });
  ASSERT_TRUE(renewed.has_value());
  EXPECT_EQ(renewed->status().code(), StatusCode::kNotFound);
}

TEST_F(JiniStackTest, RenewedEventRegistrationOutlivesItsFirstLease) {
  RecordingListener listener(net, client_node->id(), 4180, "listener-1");
  LookupClient client(net, client_node->id(), lookup->endpoint());
  std::optional<Result<LeaseGrant>> reg;
  client.notify({client_node->id(), 4180}, "listener-1", sim::seconds(2),
                [&](Result<LeaseGrant> r) { reg = std::move(r); });
  sim::run_until_done(sched, [&] { return reg.has_value(); });
  ASSERT_TRUE(reg.has_value() && reg->is_ok());
  sched.run_for(sim::seconds(1));
  std::optional<Result<LeaseRenewal>> renewed;
  client.renew(reg->value().id, sim::seconds(2),
               [&](Result<LeaseRenewal> r) { renewed = std::move(r); });
  sim::run_until_done(sched, [&] { return renewed.has_value(); });
  ASSERT_TRUE(renewed.has_value() && renewed->is_ok());
  EXPECT_EQ(renewed->value().duration, sim::seconds(2));
  EXPECT_EQ(renewed->value().seq, lookup->seq());
  sched.run_for(sim::milliseconds(1500));  // past the first lease
  EXPECT_EQ(lookup->listener_count(), 1u);
  auto registrar = join_echo();
  sched.run_for(sim::milliseconds(100));
  EXPECT_EQ(listener.events.size(), 1u);

  // The renewal reports the change number the join took.
  renewed.reset();
  client.renew(reg->value().id, sim::seconds(2),
               [&](Result<LeaseRenewal> r) { renewed = std::move(r); });
  sim::run_until_done(sched, [&] { return renewed.has_value(); });
  ASSERT_TRUE(renewed.has_value() && renewed->is_ok());
  EXPECT_EQ(renewed->value().seq, lookup->seq());
  EXPECT_GT(lookup->seq(), 0u);
}

TEST_F(JiniStackTest, CancelledEventRegistrationStopsReceivingEvents) {
  RecordingListener listener(net, client_node->id(), 4180, "listener-1");
  LookupClient client(net, client_node->id(), lookup->endpoint());
  std::optional<Result<LeaseGrant>> reg;
  client.notify({client_node->id(), 4180}, "listener-1",
                LookupService::kMaxLease,
                [&](Result<LeaseGrant> r) { reg = std::move(r); });
  sim::run_until_done(sched, [&] { return reg.has_value(); });
  ASSERT_TRUE(reg.has_value() && reg->is_ok());
  // A request past the cap is granted the cap.
  EXPECT_EQ(reg->value().duration, LookupService::kMaxLease);

  std::optional<Status> cancelled;
  client.cancel(reg->value().id, [&](const Status& s) { cancelled = s; });
  sim::run_until_done(sched, [&] { return cancelled.has_value(); });
  ASSERT_TRUE(cancelled.has_value() && cancelled->is_ok());
  EXPECT_EQ(lookup->listener_count(), 0u);

  auto registrar = join_echo();
  sched.run_for(sim::seconds(1));
  EXPECT_TRUE(listener.events.empty());
}

TEST_F(JiniStackTest, ListenersGetIdenticalNumberedPayloads) {
  RecordingListener first(net, client_node->id(), 4180, "listener-1");
  RecordingListener second(net, client_node->id(), 4181, "listener-2");
  LookupClient client(net, client_node->id(), lookup->endpoint());
  int granted = 0;
  client.notify({client_node->id(), 4180}, "listener-1",
                LookupService::kMaxLease,
                [&](Result<LeaseGrant> r) { granted += r.is_ok() ? 1 : 0; });
  client.notify({client_node->id(), 4181}, "listener-2",
                LookupService::kMaxLease,
                [&](Result<LeaseGrant> r) { granted += r.is_ok() ? 1 : 0; });
  sim::run_until_done(sched, [&] { return granted == 2; });

  auto registrar = join_echo();
  std::optional<Status> cancelled;
  registrar->cancel([&](const Status& s) { cancelled = s; });
  sim::run_until_done(sched, [&] { return cancelled.has_value(); });
  sched.run_for(sim::seconds(1));
  ASSERT_EQ(first.events.size(), 2u);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.events[0][0], Value(kEventRegistered));
  EXPECT_EQ(first.events[0][2], Value(1));
  EXPECT_EQ(first.events[1][0], Value(kEventRemoved));
  EXPECT_EQ(first.events[1][2], Value(2));
  EXPECT_EQ(lookup->seq(), 2u);

  // A lookup reports the change number its items reflect.
  std::optional<Result<ServiceMatches>> found;
  client.lookup("", {}, [&](auto r) { found = std::move(r); });
  sim::run_until_done(sched, [&] { return found.has_value(); });
  ASSERT_TRUE(found.has_value() && found->is_ok());
  EXPECT_EQ(found->value().seq, 2u);
  EXPECT_TRUE(found->value().items.empty());
}

TEST_F(JiniStackTest, RestartForgetsLeasesOfTheEarlierIncarnation) {
  auto registrar = join_echo();
  lookup->stop();
  ASSERT_TRUE(lookup->start().is_ok());
  EXPECT_EQ(lookup->service_count(), 0u);
  EXPECT_EQ(lookup->seq(), 0u);
  // The registrar's renewal is refused, and it joins the new
  // incarnation under a lease id the old one never granted.
  sched.run_for(sim::seconds(16));
  EXPECT_EQ(lookup->service_count(), 1u);
  EXPECT_TRUE(registrar->joined());
}

TEST_F(JiniStackTest, MulticastDiscoveryFindsLookup) {
  DiscoveryResponder responder(net, lookup_node->id(), lookup->endpoint());
  ASSERT_TRUE(responder.start().is_ok());
  DiscoveryClient discovery(net, client_node->id());
  std::optional<std::vector<net::Endpoint>> found;
  discovery.discover(sim::milliseconds(100),
                     [&](std::vector<net::Endpoint> eps) { found = eps; });
  sim::run_until_done(sched, [&] { return found.has_value(); });
  ASSERT_TRUE(found.has_value());
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0], lookup->endpoint());
}

TEST_F(JiniStackTest, CallToDeadServiceFails) {
  auto registrar = join_echo();
  service_node->set_up(false);
  Proxy proxy(net, client_node->id(), echo_item());
  std::optional<Result<Value>> result;
  proxy.invoke("echo", {Value(1)}, [&](Result<Value> r) { result = r; });
  sim::run_until_done(sched, [&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
}

TEST_F(JiniStackTest, CallTimesOutWhenHandlerSilent) {
  server->register_service("silent-1",
                           [](const std::string&, const ValueList&,
                              InvokeResultFn) { /* never replies */ });
  ServiceItem item;
  item.service_id = "silent-1";
  item.name = "silent";
  item.interface = echo_interface();
  item.endpoint = server->endpoint();
  Proxy proxy(net, client_node->id(), item);
  std::optional<Result<Value>> result;
  const sim::SimTime start = sched.now();
  proxy.invoke("echo", {Value(1)}, [&](Result<Value> r) { result = r; });
  sim::run_until_done(sched, [&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->is_ok());
  EXPECT_EQ(result->status().code(), StatusCode::kTimeout);
  EXPECT_EQ(sched.now() - start, kCallTimeout);
}

TEST_F(JiniStackTest, ErrorReplyWithStatusCodeZeroIsRejected) {
  // A raw peer answers the first call with an error reply whose status
  // code is 0 (kOk): a success in disguise that must not reach the
  // caller as a null result.
  const Bytes reply = {
      0x00, 0x00, 0x00, 0x0e,                          // length 14
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // id 1
      0x03,                                            // error reply
      0x00,                                            // code 0
      0x00, 0x00, 0x00, 0x00};                         // empty message
  constexpr std::uint16_t kRawPort = 4190;
  std::vector<net::StreamPtr> raw;
  ASSERT_TRUE(service_node
                  ->listen(kRawPort,
                           [&](net::StreamPtr s) {
                             net::Stream* peer = s.get();
                             raw.push_back(s);
                             s->set_on_data([peer, &reply](BlockStream&&) {
                               BlockStream out;
                               out.append(reply);
                               peer->send(std::move(out));
                             });
                           })
                  .is_ok());
  ServiceItem item = echo_item();
  item.endpoint = {service_node->id(), kRawPort};
  auto& rejected = obs::Registry::global().counter("jini.client.rejected");
  const auto before = rejected.value();
  Proxy proxy(net, client_node->id(), item);
  std::optional<Result<Value>> result;
  proxy.invoke("echo", {Value(1)}, [&](Result<Value> r) { result = r; });
  sim::run_until_done(sched, [&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
  EXPECT_EQ(result->status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(rejected.value(), before + 1);
}

TEST_F(JiniStackTest, ReRegistrationReplacesItem) {
  auto registrar = join_echo();
  auto item = echo_item();
  item.attributes["version"] = Value(2);
  Registrar second(net, service_node->id(), lookup->endpoint(), item);
  std::optional<Status> rejoined;
  second.join([&](const Status& s) { rejoined = s; });
  sim::run_until_done(sched, [&] { return rejoined.has_value(); });
  EXPECT_EQ(lookup->service_count(), 1u);

  LookupClient client(net, client_node->id(), lookup->endpoint());
  std::optional<Result<ServiceMatches>> found;
  client.lookup("Echo", {}, [&](auto r) { found = std::move(r); });
  sim::run_until_done(sched, [&] { return found.has_value(); });
  ASSERT_EQ(found->value().items.size(), 1u);
  EXPECT_EQ(found->value().items[0].attributes.at("version"), Value(2));
}

}  // namespace
}  // namespace hcm::jini
