// End-to-end tests for the cross-middleware event bridge: a client on
// one island subscribes to an event a service on another island
// declares, and events flow native-source -> adapter watch -> origin
// VSG -> subscriber VSG -> handler + native re-emission. Covers three
// island pairs (HAVi->Jini, Jini->UPnP, X10->mail), lease expiry and
// renewal, idempotent unsubscribe, drop-oldest backpressure,
// retry/backoff over a fault-injected dead link, the queue / in-flight
// batch split (retry top-up, drop-oldest with a batch on the wire,
// leases dropped mid-flight), the allocations of a warm delivery,
// deliver items that name a service their lease is not for or repeat a
// seq, and resolution through the subscriber's PCM (no VSR traffic,
// refused exports, fresh services). Every test runs over both VSG
// protocols (SOAP and the binary channel).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/adapters/upnp_adapter.hpp"
#include "core/event_router.hpp"
#include "net/binary_channel.hpp"
#include "jini/registrar.hpp"
#include "testbed/home.hpp"
#include "tests/soap/registry_find.hpp"
#include "upnp/upnp.hpp"

namespace hcm::testbed {
namespace {

struct ReceivedEvent {
  std::string service;
  std::string event;
  Value payload;
};

class EventBridgeTest : public ::testing::TestWithParam<core::VsgProtocol> {
 protected:
  void SetUp() override {
    SmartHomeOptions options;
    options.protocol = GetParam();
    home = std::make_unique<SmartHome>(sched, options);
    ASSERT_TRUE(home->refresh().is_ok());
  }

  core::EventRouter& router(const std::string& island) {
    auto* is = home->meta->island(island);
    EXPECT_NE(is, nullptr) << "no island " << island;
    return *is->events;
  }

  // Subscribes and drains the scheduler until the outcome arrives.
  Result<std::string> try_subscribe(
      const std::string& island, const std::string& service,
      const std::string& event, std::vector<ReceivedEvent>* received,
      core::EventRouter::SubscribeOptions opts = {}) {
    std::optional<Result<std::string>> r;
    router(island).subscribe(
        service, event, opts,
        [received](const std::string& svc, const std::string& ev,
                   const Value& payload) {
          received->push_back({svc, ev, payload});
        },
        [&](Result<std::string> res) { r = std::move(res); });
    sim::run_until_done(sched, [&] { return r.has_value(); });
    return r.value_or(internal_error("subscribe did not complete"));
  }

  // try_subscribe that must succeed: the lease id, or "" on failure.
  std::string subscribe(const std::string& island, const std::string& service,
                        const std::string& event,
                        std::vector<ReceivedEvent>* received,
                        core::EventRouter::SubscribeOptions opts = {}) {
    auto r = try_subscribe(island, service, event, received, opts);
    if (!r.is_ok()) {
      ADD_FAILURE() << "subscribe failed: " << r.status().to_string();
      return "";
    }
    return r.value();
  }

  Status unsubscribe(const std::string& island, const std::string& lease) {
    std::optional<Status> s;
    router(island).unsubscribe(lease, [&](const Status& st) { s = st; });
    sim::run_until_done(sched, [&] { return s.has_value(); });
    EXPECT_TRUE(s.has_value());
    return s.value_or(internal_error("unsubscribe did not complete"));
  }

  Result<Value> via(core::MiddlewareAdapter& adapter,
                    const std::string& service, const std::string& method,
                    const ValueList& args) {
    std::optional<Result<Value>> result;
    adapter.invoke(service, method, args,
                   [&](Result<Value> r) { result = std::move(r); });
    sim::run_until_done(sched, [&] { return result.has_value(); });
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no result"));
  }

  sim::Scheduler sched;
  std::unique_ptr<SmartHome> home;
};

// --- HAVi -> Jini --------------------------------------------------------

TEST_P(EventBridgeTest, HaviVcrEventsReachJiniIsland) {
  std::vector<ReceivedEvent> received;
  auto lease = subscribe("jini-island", "vcr-1", "transportChanged",
                         &received);
  ASSERT_FALSE(lease.empty());
  EXPECT_EQ(router("havi-island").active_subscriptions(), 1u);

  // Drive the VCR through RECORD -> STOP; each transition posts
  // "vcr-1.transportChanged" to the HAVi Event Manager.
  auto r = via(*home->havi_adapter, "vcr-1", "record",
               {Value(std::int64_t{1})});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  r = via(*home->havi_adapter, "vcr-1", "stop", {});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  sched.run_for(sim::seconds(2));

  ASSERT_GE(received.size(), 2u);
  EXPECT_EQ(received.front().service, "vcr-1");
  EXPECT_EQ(received.front().event, "transportChanged");
  ASSERT_TRUE(received.front().payload.is_map());
  EXPECT_TRUE(received.front().payload.at("state").is_string());
  EXPECT_GE(router("havi-island").events_routed(), 2u);
  EXPECT_GE(router("havi-island").batches_sent(), 1u);
  EXPECT_GE(router("jini-island").events_delivered(), 2u);
}

TEST_P(EventBridgeTest, BridgedEventsReemitAsNativeJiniEvents) {
  std::vector<ReceivedEvent> received;
  ASSERT_FALSE(subscribe("jini-island", "vcr-1", "transportChanged",
                         &received)
                   .empty());

  // A plain Jini client registers a RemoteEventListener on the
  // imported vcr-1 service item — exactly as it would with any native
  // Jini event source.
  net::Node& client_node = home->net.add_node("jini-client");
  home->net.attach(client_node, *home->jini_lan);
  net::BinaryRpcServer jini_server(home->net, client_node.id(), 4180, "jini");
  ASSERT_TRUE(jini_server.start().is_ok());
  std::vector<std::string> native_events;
  jini_server.register_service(
      "test-listener",
      [&](const std::string& method, const ValueList& args,
          InvokeResultFn done) {
        if (method == "serviceEvent" && args.size() == 2) {
          native_events.push_back(args[0].as_string());
        }
        done(Value());
      });

  jini::LookupClient lookup(home->net, client_node.id(),
                            home->lookup->endpoint());
  std::optional<Result<jini::ServiceMatches>> items;
  lookup.lookup("VcrControl", {}, [&](auto r) { items = std::move(r); });
  sim::run_until_done(sched, [&] { return items.has_value(); });
  ASSERT_TRUE(items.has_value() && items->is_ok());
  ASSERT_EQ(items->value().items.size(), 1u);

  jini::Proxy vcr_proxy(home->net, client_node.id(), items->value().items[0]);
  std::optional<Result<Value>> reg;
  vcr_proxy.invoke("notify",
                   {Value(static_cast<std::int64_t>(client_node.id())),
                    Value(std::int64_t{4180}), Value(std::string("test-listener"))},
                   [&](Result<Value> r) { reg = std::move(r); });
  sim::run_until_done(sched, [&] { return reg.has_value(); });
  ASSERT_TRUE(reg.has_value() && reg->is_ok()) << reg->status().to_string();

  auto r = via(*home->havi_adapter, "vcr-1", "record",
               {Value(std::int64_t{1})});
  ASSERT_TRUE(r.is_ok());
  sched.run_for(sim::seconds(2));

  ASSERT_GE(native_events.size(), 1u);
  EXPECT_EQ(native_events.front(), "transportChanged");
}

// --- Jini -> UPnP --------------------------------------------------------

class EventBridgeUpnpTest : public EventBridgeTest {
 protected:
  void SetUp() override {
    EventBridgeTest::SetUp();
    upnp_lan = &home->net.add_ethernet("upnp-lan", sim::microseconds(200),
                                       100'000'000);
    upnp_gw = &home->net.add_node("upnp-gw");
    plug_node = &home->net.add_node("smart-plug");
    home->net.attach(*upnp_gw, *upnp_lan);
    home->net.attach(*upnp_gw, *home->backbone);
    home->net.attach(*plug_node, *upnp_lan);

    auto adapter =
        std::make_unique<core::UpnpAdapter>(home->net, upnp_gw->id());
    upnp_adapter = adapter.get();
    auto island = home->meta->add_island("upnp-island", upnp_gw->id(),
                                         std::move(adapter), GetParam());
    ASSERT_TRUE(island.is_ok()) << island.status().to_string();
    ASSERT_TRUE(home->refresh().is_ok());
  }

  net::EthernetSegment* upnp_lan = nullptr;
  net::Node* upnp_gw = nullptr;
  net::Node* plug_node = nullptr;
  core::UpnpAdapter* upnp_adapter = nullptr;
};

TEST_P(EventBridgeUpnpTest, JiniLaserdiscEventsReachUpnpIsland) {
  std::vector<ReceivedEvent> received;
  ASSERT_FALSE(subscribe("upnp-island", "laserdisc-1", "statusChanged",
                         &received)
                   .empty());
  EXPECT_EQ(router("jini-island").active_subscriptions(), 1u);
  EXPECT_EQ(home->laserdisc->listener_count(), 1u);

  auto r = via(*home->jini_adapter, "laserdisc-1", "turnOn", {});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  sched.run_for(sim::seconds(2));

  ASSERT_GE(received.size(), 1u);
  EXPECT_EQ(received.front().service, "laserdisc-1");
  EXPECT_EQ(received.front().event, "statusChanged");
  ASSERT_TRUE(received.front().payload.is_map());
  EXPECT_TRUE(received.front().payload.at("powered").as_bool());
}

TEST_P(EventBridgeUpnpTest, BridgedEventsReemitAsGenaNotifications) {
  std::vector<ReceivedEvent> received;
  ASSERT_FALSE(subscribe("upnp-island", "laserdisc-1", "statusChanged",
                         &received)
                   .empty());

  // A plain UPnP control point GENA-subscribes to the gateway device's
  // re-exported laserdisc service.
  upnp::ControlPoint cp(home->net, plug_node->id());
  std::optional<std::vector<upnp::DeviceDescription>> devices;
  cp.search(sim::milliseconds(300),
            [&](std::vector<upnp::DeviceDescription> d) {
              devices = std::move(d);
            });
  sim::run_until_done(sched, [&] { return devices.has_value(); });
  const upnp::ServiceDescription* laserdisc = nullptr;
  for (const auto& device : *devices) {
    for (const auto& svc : device.services) {
      if (svc.service_id == "laserdisc-1") laserdisc = &svc;
    }
  }
  ASSERT_NE(laserdisc, nullptr)
      << "gateway device does not re-export laserdisc-1";

  std::vector<std::string> gena_events;
  std::optional<Result<std::string>> sid;
  cp.subscribe(
      *laserdisc,
      [&](const std::string&, const std::string& event, const Value&) {
        gena_events.push_back(event);
      },
      [&](Result<std::string> r) { sid = std::move(r); });
  sim::run_until_done(sched, [&] { return sid.has_value(); });
  ASSERT_TRUE(sid.has_value() && sid->is_ok()) << sid->status().to_string();

  auto r = via(*home->jini_adapter, "laserdisc-1", "turnOn", {});
  ASSERT_TRUE(r.is_ok());
  sched.run_for(sim::seconds(2));

  ASSERT_GE(gena_events.size(), 1u);
  EXPECT_EQ(gena_events.front(), "statusChanged");
}

// --- X10 -> mail ---------------------------------------------------------

TEST_P(EventBridgeTest, X10StateChangesReachMailIsland) {
  std::vector<ReceivedEvent> received;
  ASSERT_FALSE(subscribe("mail-island", "desk-lamp", "stateChanged",
                         &received)
                   .empty());

  // An external hand-held remote on house A flips the lamp: the CM11A
  // observes the powerline command and the bridge carries it to mail.
  net::Node& extra_node = home->net.add_node("x10-remote-a");
  home->net.attach(extra_node, *home->powerline);
  x10::RemoteControl remote_a(home->net, extra_node.id(), *home->powerline,
                              x10::HouseCode::kA);
  remote_a.press(1, x10::FunctionCode::kOn);
  sched.run_for(sim::seconds(5));

  ASSERT_GE(received.size(), 1u);
  EXPECT_EQ(received.front().service, "desk-lamp");
  EXPECT_EQ(received.front().event, "stateChanged");
  ASSERT_TRUE(received.front().payload.is_map());
  EXPECT_TRUE(received.front().payload.at("on").as_bool());
  // Native re-emission: the event lands in the evt-home mailbox.
  EXPECT_GE(home->mail_server->mailbox_size("evt-home"), 1u);
}

TEST_P(EventBridgeTest, LeaseReceivesOnlyItsOwnService) {
  std::vector<ReceivedEvent> received;
  ASSERT_FALSE(subscribe("jini-island", "desk-lamp", "stateChanged",
                         &received)
                   .empty());

  net::Node& extra_node = home->net.add_node("x10-remote-a");
  home->net.attach(extra_node, *home->powerline);
  x10::RemoteControl remote_a(home->net, extra_node.id(), *home->powerline,
                              x10::HouseCode::kA);
  // The ceiling fan (A2) changes: the desk-lamp lease hears nothing.
  remote_a.press(2, x10::FunctionCode::kOn);
  sched.run_for(sim::seconds(5));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(router("x10-island").events_routed(), 0u);

  // The lamp (A1) changes: exactly that event arrives.
  remote_a.press(1, x10::FunctionCode::kOn);
  sched.run_for(sim::seconds(5));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received.front().service, "desk-lamp");
}

// --- Framework-hosted event source --------------------------------------

TEST_P(EventBridgeTest, HostedMotionSensorStaysLeasedAcrossRefreshes) {
  // The motion sensor has no native listing behind it. The X10 island's
  // PCM must still renew its VSR entry, with the island's other entries
  // and on the one-call path, or it lapses one publish TTL in.
  ASSERT_TRUE(expose_motion_events(*home).is_ok());
  const sim::SimTime until = sched.now() + 2 * core::Pcm::kPublishTtl;
  while (sched.now() <= until) {
    sched.run_for(sim::seconds(40));
    ASSERT_TRUE(home->refresh().is_ok());
  }

  core::VsrClient vsr(home->net, home->havi_gw->id(), home->vsr->endpoint());
  auto entry = soap::find_entry(vsr, sched, kMotionService);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->is_ok()) << entry->status().to_string();

  std::vector<ReceivedEvent> received;
  EXPECT_FALSE(
      subscribe("havi-island", kMotionService, "motion", &received).empty());
  EXPECT_EQ(home->meta->island("x10-island")->pcm->renew_fallbacks(), 0u);
}

// A service hosted after the subscriber's last refresh is not yet
// imported there: the subscription is refused until the next refresh,
// like every other use of a foreign service.
TEST_P(EventBridgeTest, FreshlyHostedServiceResolvesAfterTheNextRefresh) {
  ASSERT_TRUE(expose_motion_events(*home).is_ok());  // in the VSR now
  std::vector<ReceivedEvent> received;
  auto early = try_subscribe("havi-island", kMotionService, "motion",
                             &received);
  ASSERT_FALSE(early.is_ok());
  EXPECT_EQ(early.status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(home->refresh().is_ok());
  EXPECT_FALSE(
      subscribe("havi-island", kMotionService, "motion", &received).empty());
  EXPECT_EQ(router("x10-island").active_subscriptions(), 1u);
}

// --- Resolution through the island's PCM --------------------------------

// The subscriber resolves the source from its PCM's imports, so a
// subscription sends nothing to the VSR: it opens no connection there,
// and works while the VSR is down.
TEST_P(EventBridgeTest, SubscribeOpensNoVsrConnection) {
  const std::uint64_t before = home->vsr->connections_accepted();
  std::vector<ReceivedEvent> received;
  ASSERT_FALSE(subscribe("jini-island", "vcr-1", "transportChanged",
                         &received)
                   .empty());
  EXPECT_EQ(home->vsr->connections_accepted(), before);
}

TEST_P(EventBridgeTest, SubscribesAndDeliversWhileTheVsrIsDown) {
  home->vsr_node->set_up(false);
  std::vector<ReceivedEvent> received;
  ASSERT_FALSE(subscribe("jini-island", "vcr-1", "transportChanged",
                         &received)
                   .empty());
  auto r = via(*home->havi_adapter, "vcr-1", "record",
               {Value(std::int64_t{1})});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  sched.run_for(sim::seconds(2));
  ASSERT_GE(received.size(), 1u);
  EXPECT_EQ(received.front().service, "vcr-1");
  EXPECT_EQ(received.front().event, "transportChanged");
}

// X10 cannot express mail-home's methods, so the X10 island refuses to
// export it. The island's PCM still imported its description, and the
// event bridge resolves it from there.
TEST_P(EventBridgeTest, RefusedExportStaysSubscribable) {
  auto& x10_pcm = *home->meta->island("x10-island")->pcm;
  EXPECT_FALSE(x10_pcm.has_imported("mail-home"));
  EXPECT_NE(x10_pcm.find_foreign("mail-home"), nullptr);

  std::vector<ReceivedEvent> received;
  ASSERT_FALSE(
      subscribe("x10-island", "mail-home", "messageArrived", &received)
          .empty());
  home->mail_server->deliver({0, "alice@example.org", "home", "hello", "hi"});
  sched.run_for(sim::seconds(15));
  ASSERT_GE(received.size(), 1u);
  EXPECT_EQ(received.front().service, "mail-home");
  EXPECT_EQ(received.front().event, "messageArrived");
  EXPECT_EQ(received.front().payload.at("subject").as_string(), "hello");
}

// --- Lease semantics -----------------------------------------------------

TEST_P(EventBridgeTest, LeaseExpiryRemovesSubscriptionAndStopsDelivery) {
  std::vector<ReceivedEvent> received;
  core::EventRouter::SubscribeOptions opts;
  opts.lease = sim::seconds(2);
  opts.auto_renew = false;
  ASSERT_FALSE(subscribe("jini-island", "vcr-1", "transportChanged",
                         &received, opts)
                   .empty());
  EXPECT_EQ(router("havi-island").active_subscriptions(), 1u);

  sched.run_for(sim::seconds(5));

  EXPECT_EQ(router("havi-island").leases_expired(), 1u);
  EXPECT_EQ(router("havi-island").active_subscriptions(), 0u);

  // A state change after expiry is not delivered and consumes no
  // queue space at the origin (the dead subscriber is gone).
  auto r = via(*home->havi_adapter, "vcr-1", "record",
               {Value(std::int64_t{1})});
  ASSERT_TRUE(r.is_ok());
  sched.run_for(sim::seconds(2));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(router("havi-island").events_routed(), 0u);
}

TEST_P(EventBridgeTest, AutoRenewalExtendsLeaseAcrossPeriods) {
  std::vector<ReceivedEvent> received;
  core::EventRouter::SubscribeOptions opts;
  opts.lease = sim::seconds(2);
  opts.auto_renew = true;
  ASSERT_FALSE(subscribe("jini-island", "vcr-1", "transportChanged",
                         &received, opts)
                   .empty());

  // Three lease periods pass; renewal at half-life keeps it alive.
  sched.run_for(sim::seconds(6));
  EXPECT_EQ(router("havi-island").active_subscriptions(), 1u);
  EXPECT_EQ(router("havi-island").leases_expired(), 0u);

  auto r = via(*home->havi_adapter, "vcr-1", "record",
               {Value(std::int64_t{1})});
  ASSERT_TRUE(r.is_ok());
  sched.run_for(sim::seconds(2));
  EXPECT_GE(received.size(), 1u);
}

TEST_P(EventBridgeTest, DoubleUnsubscribeIsIdempotent) {
  std::vector<ReceivedEvent> received;
  auto lease = subscribe("jini-island", "vcr-1", "transportChanged",
                         &received);
  ASSERT_FALSE(lease.empty());

  EXPECT_TRUE(unsubscribe("jini-island", lease).is_ok());
  EXPECT_EQ(router("jini-island").local_subscriptions(), 0u);
  sched.run_for(sim::seconds(1));
  EXPECT_EQ(router("havi-island").active_subscriptions(), 0u);
  // Second unsubscribe of the same (now unknown) lease still succeeds.
  EXPECT_TRUE(unsubscribe("jini-island", lease).is_ok());
}

TEST_P(EventBridgeTest, UnsubscribeStopsDelivery) {
  std::vector<ReceivedEvent> received;
  auto lease = subscribe("jini-island", "vcr-1", "transportChanged",
                         &received);
  ASSERT_FALSE(lease.empty());
  ASSERT_TRUE(unsubscribe("jini-island", lease).is_ok());
  sched.run_for(sim::seconds(1));

  auto r = via(*home->havi_adapter, "vcr-1", "record",
               {Value(std::int64_t{1})});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  sched.run_for(sim::seconds(2));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(router("havi-island").events_routed(), 0u);
  EXPECT_EQ(router("jini-island").events_delivered(), 0u);
}

// --- Backpressure --------------------------------------------------------

TEST_P(EventBridgeTest, BurstBeyondQueueBoundDropsOldest) {
  std::vector<ReceivedEvent> received;
  ASSERT_FALSE(subscribe("jini-island", "vcr-1", "transportChanged",
                         &received)
                   .empty());
  auto& origin = router("havi-island");
  const std::size_t burst = core::EventRouter::kMaxQueue * 3;

  // Inject a burst with no scheduler progress in between: the bounded
  // queue must shed oldest-unsent events instead of growing.
  for (std::size_t i = 0; i < burst; ++i) {
    origin.on_native_event(
        "vcr-1", "transportChanged",
        Value(ValueMap{{"state", Value(static_cast<std::int64_t>(i))}}));
  }
  sched.run_for(sim::seconds(5));

  EXPECT_GT(origin.events_dropped(), 0u);
  EXPECT_GE(origin.events_routed(), 1u);
  EXPECT_LT(received.size(), burst);
  EXPECT_GE(received.size(), 1u);
  // Everything that was routed (not dropped) arrived exactly once.
  EXPECT_EQ(origin.events_routed() + origin.events_dropped(), burst);
  EXPECT_EQ(received.size(), origin.events_routed());
}

// --- Allocation pin ------------------------------------------------------

// Steady state of the bridge: the allocations one delivered event costs
// from the origin's on_native_event to the subscriber's handler and the
// ack back, averaged over warm bursts of more than one batch. Each event
// is built once as its wire item and queued as that item, the batch is
// the deliver call's argument list and keeps its capacity, the SOAP
// decoder grows no per-list child vector, and the subscriber finds the
// lease without copying its id.
TEST_P(EventBridgeTest, WarmDeliveryAllocationsStayPinned) {
  std::size_t handled = 0;
  std::optional<Result<std::string>> lease;
  router("jini-island")
      .subscribe(
          "vcr-1", "transportChanged",
          [&handled](const std::string&, const std::string&, const Value&) {
            ++handled;
          },
          [&lease](Result<std::string> r) { lease = std::move(r); });
  sim::run_until_done(sched, [&] { return lease.has_value(); });
  ASSERT_TRUE(lease.has_value() && lease->is_ok());
  auto& origin = router("havi-island");
  const Value payload(ValueMap{{"state", Value(std::string("RECORD"))}});
  const std::size_t kBurst = core::EventRouter::kMaxBatch + 8;
  std::size_t sent = 0;
  auto burst = [&] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      origin.on_native_event("vcr-1", "transportChanged", payload);
    }
    sent += kBurst;
    sim::run_until_done(sched, [&] { return origin.events_routed() == sent; });
  };
  // Warm-up: the backbone connections, pooled blocks, recycled
  // envelopes, decode stacks and batch capacities.
  for (int i = 0; i < 3; ++i) burst();
  EXPECT_TRUE(bench::alloc_hook_installed());
  const int kBursts = 10;
  bench::AllocDelta delta;
  for (int i = 0; i < kBursts; ++i) burst();
  const double per_event =
      static_cast<double>(delta.allocs()) / (kBursts * kBurst);
  EXPECT_EQ(handled, sent);
  EXPECT_EQ(origin.events_dropped(), 0u);
  // A queue of payload copies flushed through a rebuilt batch read 14.03
  // (SOAP) and 10.64 (binary) allocations per event.
  const double bound = GetParam() == core::VsgProtocol::kSoap ? 10.0 : 9.0;
  EXPECT_LT(per_event, bound) << per_event << " allocations per event";
}

// --- Deliver items -------------------------------------------------------

// A deliver item carries {sub, seq, payload}; the subscriber takes the
// service and event from the lease. A peer that names another service
// in the item must neither reach the handler as that service nor drive
// its native re-emission (here: an X10 command for a bound unit).
TEST_P(EventBridgeTest, DeliverTakesServiceAndEventFromTheLease) {
  std::vector<ReceivedEvent> received;
  auto lease = subscribe("x10-island", "vcr-1", "transportChanged",
                         &received);
  ASSERT_FALSE(lease.empty());
  sched.run_for(sim::seconds(1));
  const std::uint64_t commands_before = home->cm11a->commands_sent();

  auto& x10_vsg = *home->meta->island("x10-island")->vsg;
  const ValueList batch{Value(ValueMap{
      {"sub", Value(lease)},
      {"seq", Value(std::int64_t{1})},
      {"service", Value(std::string("camera-1"))},
      {"event", Value(std::string("stateChanged"))},
      {"payload", Value(ValueMap{{"on", Value(true)}})},
  })};
  std::optional<Result<Value>> ack;
  home->meta->island("havi-island")
      ->vsg->call_remote(
          x10_vsg.exposure_uri(core::EventRouter::kBridgeService),
          core::EventRouter::kBridgeService,
          core::EventRouter::bridge_interface(), "deliver",
          {Value(batch)}, [&](Result<Value> r) { ack = std::move(r); });
  sim::run_until_done(sched, [&] { return ack.has_value(); });
  ASSERT_TRUE(ack.has_value() && ack->is_ok());
  sched.run_for(sim::seconds(5));

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received.front().service, "vcr-1");
  EXPECT_EQ(received.front().event, "transportChanged");
  EXPECT_EQ(home->cm11a->commands_sent(), commands_before);
}

// At-least-once delivery re-sends a batch whose ack was lost; the
// subscriber drops items at or below the last seq it handled.
TEST_P(EventBridgeTest, ResentDeliverItemFiresTheHandlerOnce) {
  std::vector<ReceivedEvent> received;
  auto lease = subscribe("x10-island", "vcr-1", "transportChanged",
                         &received);
  ASSERT_FALSE(lease.empty());
  sched.run_for(sim::seconds(1));

  auto& x10_vsg = *home->meta->island("x10-island")->vsg;
  const ValueList batch{Value(ValueMap{
      {"sub", Value(lease)},
      {"seq", Value(std::int64_t{1})},
      {"payload", Value(ValueMap{{"state", Value(std::string("PLAY"))}})},
  })};
  for (int i = 0; i < 2; ++i) {
    std::optional<Result<Value>> ack;
    home->meta->island("havi-island")
        ->vsg->call_remote(
            x10_vsg.exposure_uri(core::EventRouter::kBridgeService),
            core::EventRouter::kBridgeService,
            core::EventRouter::bridge_interface(), "deliver",
            {Value(batch)}, [&](Result<Value> r) { ack = std::move(r); });
    sim::run_until_done(sched, [&] { return ack.has_value(); });
    ASSERT_TRUE(ack.has_value() && ack->is_ok());
    EXPECT_EQ(ack->value().as_int(), 1);  // both copies are acked
  }

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received.front().payload.at("state").as_string(), "PLAY");
  EXPECT_EQ(router("x10-island").duplicates_dropped(), 1u);
  EXPECT_EQ(router("x10-island").events_delivered(), 1u);
}

// --- Queue and in-flight batch -------------------------------------------

// A bridge endpoint on its own gateway that leases the HAVi VCR's
// transportChanged directly and records the seqs of every deliver batch
// it receives. It answers each batch at once, fails it, or holds its
// answer back, so a test can keep a batch on the wire while it drives
// the origin.
struct RecordingSink {
  enum class Answer { kAck, kFail, kHold };

  RecordingSink(SmartHome& home, core::VsgProtocol protocol)
      : vsg(home.net, backbone_node(home), "sink-island", 8080, protocol),
        origin(home.meta->island("havi-island")
                   ->vsg->exposure_uri(core::EventRouter::kBridgeService)) {}

  static net::NodeId backbone_node(SmartHome& home) {
    auto& node = home.net.add_node("sink-gw");
    home.net.attach(node, *home.backbone);
    return node.id();
  }

  Status start() {
    if (auto s = vsg.start(); !s.is_ok()) return s;
    auto uri = vsg.expose(
        core::EventRouter::kBridgeService, core::EventRouter::bridge_interface(),
        [this](const std::string&, const ValueList& args, InvokeResultFn done) {
          std::vector<std::int64_t> seqs;
          for (const auto& item : args.at(0).as_list()) {
            seqs.push_back(item.at("seq").as_int());
          }
          const auto n = static_cast<std::int64_t>(seqs.size());
          batches.push_back(std::move(seqs));
          if (answer == Answer::kAck) {
            done(Value(n));
          } else if (answer == Answer::kFail) {
            done(unavailable("sink refuses the batch"));
          } else {
            held.push_back(std::move(done));
          }
        });
    return uri.status();
  }

  // Calls `method` on the origin's bridge and drains until it answers.
  Result<Value> call_origin(sim::Scheduler& sched, const std::string& method,
                            const ValueList& args) {
    std::optional<Result<Value>> reply;
    vsg.call_remote(origin, core::EventRouter::kBridgeService,
                    core::EventRouter::bridge_interface(), method, args,
                    [&](Result<Value> r) { reply = std::move(r); });
    sim::run_until_done(sched, [&] { return reply.has_value(); });
    return reply.value_or(internal_error(method + " did not complete"));
  }

  // The lease id, or "" on failure.
  std::string subscribe(sim::Scheduler& sched, sim::Duration lease) {
    auto reply = call_origin(
        sched, "subscribe",
        {Value("vcr-1"), Value("transportChanged"),
         Value(vsg.exposure_uri(core::EventRouter::kBridgeService).to_string()),
         Value(static_cast<std::int64_t>(lease))});
    if (!reply.is_ok()) {
      ADD_FAILURE() << "sink subscribe failed: " << reply.status().to_string();
      return "";
    }
    return reply.value().at("lease").as_string();
  }

  core::VirtualServiceGateway vsg;
  Uri origin;  // the HAVi island's bridge
  Answer answer = Answer::kAck;
  std::vector<std::vector<std::int64_t>> batches;
  std::vector<InvokeResultFn> held;  // destroyed before the gateway
};

// Queues `n` events at `origin` with no scheduler progress between.
void inject(core::EventRouter& origin, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    origin.on_native_event("vcr-1", "transportChanged",
                           Value(ValueMap{{"state", Value("PLAY")}}));
  }
}

std::vector<std::int64_t> seq_range(std::int64_t first, std::int64_t last) {
  std::vector<std::int64_t> out;
  for (std::int64_t s = first; s <= last; ++s) out.push_back(s);
  return out;
}

TEST_P(EventBridgeTest, FailedDeliverIsRetriedWithTheSameSeqsToppedUp) {
  RecordingSink sink(*home, GetParam());
  ASSERT_TRUE(sink.start().is_ok());
  ASSERT_FALSE(sink.subscribe(sched, sim::seconds(60)).empty());
  auto& origin = router("havi-island");
  sink.answer = RecordingSink::Answer::kFail;
  inject(origin, 5);
  sim::run_until_done(sched, [&] { return origin.delivery_retries() == 1; });
  ASSERT_EQ(sink.batches.size(), 1u);
  EXPECT_EQ(sink.batches[0], seq_range(1, 5));

  // Events queued during the backoff top the retried batch up to
  // kMaxBatch; the rest follow in the next batch.
  constexpr auto kBatch =
      static_cast<std::int64_t>(core::EventRouter::kMaxBatch);
  sink.answer = RecordingSink::Answer::kAck;
  inject(origin, 20);
  sim::run_until_done(sched, [&] { return origin.events_routed() == 25; });
  ASSERT_EQ(sink.batches.size(), 3u);
  EXPECT_EQ(sink.batches[1], seq_range(1, kBatch));
  EXPECT_EQ(sink.batches[2], seq_range(kBatch + 1, 25));
  EXPECT_EQ(origin.delivery_retries(), 1u);
  EXPECT_EQ(origin.batches_sent(), 2u);
  EXPECT_EQ(origin.events_dropped(), 0u);
}

// A failed batch waiting out its backoff is kept whole: an overflow in
// that window sheds the oldest queued events, never the batch's.
TEST_P(EventBridgeTest, OverflowDuringBackoffKeepsTheFailedBatch) {
  RecordingSink sink(*home, GetParam());
  ASSERT_TRUE(sink.start().is_ok());
  ASSERT_FALSE(sink.subscribe(sched, sim::seconds(60)).empty());
  auto& origin = router("havi-island");
  sink.answer = RecordingSink::Answer::kFail;
  inject(origin, 5);
  sim::run_until_done(sched, [&] { return origin.delivery_retries() == 1; });
  ASSERT_EQ(sink.batches.size(), 1u);

  // 5 in the batch + 64 queued: seqs 6..10 are dropped.
  sink.answer = RecordingSink::Answer::kAck;
  inject(origin, core::EventRouter::kMaxQueue);
  EXPECT_EQ(origin.events_dropped(), 5u);
  sim::run_until_done(sched, [&] {
    return origin.events_routed() ==
           static_cast<std::uint64_t>(core::EventRouter::kMaxQueue);
  });
  ASSERT_GE(sink.batches.size(), 2u);
  std::vector<std::int64_t> retried = seq_range(1, 5);
  const auto top_up = seq_range(11, 21);
  retried.insert(retried.end(), top_up.begin(), top_up.end());
  EXPECT_EQ(sink.batches[1], retried);
}

TEST_P(EventBridgeTest, DropOldestWithAFullBatchInFlightShedsTheOldestUnsent) {
  RecordingSink sink(*home, GetParam());
  ASSERT_TRUE(sink.start().is_ok());
  ASSERT_FALSE(sink.subscribe(sched, sim::seconds(60)).empty());
  auto& origin = router("havi-island");
  constexpr auto kBatch =
      static_cast<std::int64_t>(core::EventRouter::kMaxBatch);
  constexpr auto kQueue =
      static_cast<std::int64_t>(core::EventRouter::kMaxQueue);
  sink.answer = RecordingSink::Answer::kHold;
  // A full batch flushes at once; the queue then fills up behind it
  // until queue plus batch reach kMaxQueue.
  inject(origin, core::EventRouter::kMaxQueue);
  EXPECT_EQ(origin.events_dropped(), 0u);
  // One more: the oldest event not on the wire (seq kBatch + 1) goes.
  inject(origin, 1);
  EXPECT_EQ(origin.events_dropped(), 1u);
  sim::run_until_done(sched, [&] { return sink.held.size() == 1; });
  ASSERT_EQ(sink.batches.size(), 1u);
  EXPECT_EQ(sink.batches[0], seq_range(1, kBatch));

  sink.answer = RecordingSink::Answer::kAck;
  sink.held.front()(Value(kBatch));
  sim::run_until_done(sched,
                      [&] { return origin.events_routed() == kQueue; });
  std::vector<std::int64_t> delivered;
  for (const auto& b : sink.batches) {
    delivered.insert(delivered.end(), b.begin(), b.end());
  }
  std::vector<std::int64_t> expected = seq_range(1, kBatch);
  const auto rest = seq_range(kBatch + 2, kQueue + 1);
  expected.insert(expected.end(), rest.begin(), rest.end());
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(origin.events_dropped(), 1u);
}

// The origin drops a lease whose batch is still on the wire: the batch
// goes with the lease (ASan's leak check covers it), and the late ack
// finds no lease, so nothing is counted or re-sent.
TEST_P(EventBridgeTest, LeaseExpiryWithABatchInFlightFreesTheBatch) {
  RecordingSink sink(*home, GetParam());
  ASSERT_TRUE(sink.start().is_ok());
  ASSERT_FALSE(sink.subscribe(sched, sim::seconds(2)).empty());
  auto& origin = router("havi-island");
  sink.answer = RecordingSink::Answer::kHold;
  inject(origin, core::EventRouter::kMaxBatch + 3);
  sim::run_until_done(sched, [&] { return sink.held.size() == 1; });
  sched.run_for(sim::seconds(3));
  EXPECT_EQ(origin.leases_expired(), 1u);
  EXPECT_EQ(origin.active_subscriptions(), 0u);

  sink.held.front()(
      Value(static_cast<std::int64_t>(core::EventRouter::kMaxBatch)));
  sched.run_for(sim::seconds(1));
  EXPECT_EQ(origin.events_routed(), 0u);
  EXPECT_EQ(sink.batches.size(), 1u);
}

TEST_P(EventBridgeTest, UnsubscribeWithABatchInFlightFreesTheBatch) {
  RecordingSink sink(*home, GetParam());
  ASSERT_TRUE(sink.start().is_ok());
  const std::string lease = sink.subscribe(sched, sim::seconds(60));
  ASSERT_FALSE(lease.empty());
  auto& origin = router("havi-island");
  sink.answer = RecordingSink::Answer::kHold;
  inject(origin, core::EventRouter::kMaxBatch + 3);
  sim::run_until_done(sched, [&] { return sink.held.size() == 1; });

  auto reply = sink.call_origin(sched, "unsubscribe", {Value(lease)});
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value(), Value(true));
  EXPECT_EQ(origin.active_subscriptions(), 0u);

  sink.held.front()(
      Value(static_cast<std::int64_t>(core::EventRouter::kMaxBatch)));
  sched.run_for(sim::seconds(1));
  EXPECT_EQ(origin.events_routed(), 0u);
  EXPECT_EQ(sink.batches.size(), 1u);
}

// --- Fault injection: dead VSG link --------------------------------------

TEST_P(EventBridgeTest, RetryWithBackoffSurvivesDeadLink) {
  std::vector<ReceivedEvent> received;
  ASSERT_FALSE(subscribe("jini-island", "vcr-1", "transportChanged",
                         &received)
                   .empty());
  auto& origin = router("havi-island");

  // Take the subscriber's gateway down; deliveries must fail and back
  // off rather than being lost.
  home->jini_gw->set_up(false);
  origin.on_native_event("vcr-1", "transportChanged",
                         Value(ValueMap{{"state", Value(std::string("PLAY"))}}));
  sched.run_for(sim::seconds(3));
  EXPECT_GT(origin.delivery_retries(), 0u);
  EXPECT_EQ(received.size(), 0u);

  // Link restored: at-least-once delivery completes on a later retry.
  home->jini_gw->set_up(true);
  sched.run_for(sim::seconds(10));
  ASSERT_GE(received.size(), 1u);
  EXPECT_EQ(received.front().payload.at("state").as_string(), "PLAY");
  EXPECT_GE(origin.events_routed(), 1u);
}

std::string protocol_name(
    const ::testing::TestParamInfo<core::VsgProtocol>& info) {
  return info.param == core::VsgProtocol::kSoap ? "Soap" : "Binary";
}

INSTANTIATE_TEST_SUITE_P(BothProtocols, EventBridgeTest,
                         ::testing::Values(core::VsgProtocol::kSoap,
                                           core::VsgProtocol::kBinary),
                         protocol_name);
INSTANTIATE_TEST_SUITE_P(BothProtocols, EventBridgeUpnpTest,
                         ::testing::Values(core::VsgProtocol::kSoap,
                                           core::VsgProtocol::kBinary),
                         protocol_name);

}  // namespace
}  // namespace hcm::testbed
