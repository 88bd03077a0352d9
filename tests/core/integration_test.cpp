// Whole-framework integration tests over the paper's Fig. 3 prototype:
// four middleware islands (Jini, HAVi, X10, Internet Mail) connected by
// SOAP VSGs around a WSDL/UDDI VSR.
#include <gtest/gtest.h>

#include "jini/registrar.hpp"
#include "testbed/home.hpp"

namespace hcm::testbed {
namespace {

class SmartHomeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    home = std::make_unique<SmartHome>(sched);
    ASSERT_TRUE(home->refresh().is_ok());
  }

  // Invoke through an island's native entry point (the adapter), which
  // exercises the full SP->VSG->CP chain for imported services.
  Result<Value> via(core::MiddlewareAdapter& adapter,
                    const std::string& service, const std::string& method,
                    const ValueList& args) {
    std::optional<Result<Value>> result;
    adapter.invoke(service, method, args,
                   [&](Result<Value> r) { result = std::move(r); });
    sim::run_until_done(sched, [&] { return result.has_value(); });
    EXPECT_TRUE(result.has_value()) << service << "." << method;
    return result.value_or(internal_error("no result"));
  }

  sim::Scheduler sched;
  std::unique_ptr<SmartHome> home;
};

TEST_F(SmartHomeTest, RefreshPopulatesVsr) {
  // laserdisc + vcr + tuner + camera + display + lamp + fan + mail = 8.
  EXPECT_EQ(home->vsr->registry().size(), 8u);
}

TEST_F(SmartHomeTest, ForeignServicesAppearInJiniLookup) {
  // Native laserdisc + 7 imported server proxies (all foreign services
  // map into Jini — it is the most expressive island). Each export joins
  // the LUS with its own lease request, which may still be in flight
  // when the refresh completes: wait for the count, within a bound.
  sim::run_until_done(
      sched, [&] { return home->lookup->service_count() >= 8u; }, 10'000);
  EXPECT_EQ(home->lookup->service_count(), 8u);
}

TEST_F(SmartHomeTest, JiniClientTurnsOnX10Lamp) {
  // Faithful client path: discover via the lookup service, invoke the
  // downloaded proxy. The service happens to live on the powerline.
  jini::LookupClient client(home->net, home->laserdisc_node->id(),
                            home->lookup->endpoint());
  std::optional<Result<Value>> result;
  std::shared_ptr<jini::Proxy> proxy;
  client.lookup("X10Switchable", {},
                [&](Result<jini::ServiceMatches> items) {
                  ASSERT_TRUE(items.is_ok());
                  const jini::ServiceItem* lamp_item = nullptr;
                  for (const auto& item : items.value().items) {
                    if (item.name == "desk-lamp") lamp_item = &item;
                  }
                  ASSERT_NE(lamp_item, nullptr);
                  proxy = std::make_shared<jini::Proxy>(
                      home->net, home->laserdisc_node->id(), *lamp_item);
                  proxy->invoke("turnOn", {}, [&](Result<Value> r) {
                    result = std::move(r);
                  });
                });
  sim::run_until_done(sched, [&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok()) << result->status().to_string();
  EXPECT_TRUE(home->lamp->is_on());
}

TEST_F(SmartHomeTest, X10RemoteControlsJiniLaserdisc) {
  // The paper's Fig. 5: "controlling a Jini Laserdisc with an X10
  // remote controller".
  auto unit = home->x10_adapter->unit_for("laserdisc-1");
  ASSERT_TRUE(unit.is_ok()) << unit.status().to_string();
  home->remote->press(unit.value(), x10::FunctionCode::kOn);
  sched.run_for(sim::seconds(30));
  EXPECT_TRUE(home->laserdisc->powered());
  home->remote->press(unit.value(), x10::FunctionCode::kOff);
  sched.run_for(sim::seconds(30));
  EXPECT_FALSE(home->laserdisc->powered());
}

TEST_F(SmartHomeTest, X10RemoteControlsHaviDvCamera) {
  // "...and he can also control a HAVi DV camera."
  auto unit = home->x10_adapter->unit_for("camera-1");
  ASSERT_TRUE(unit.is_ok());
  home->remote->press(unit.value(), x10::FunctionCode::kOn);
  sched.run_for(sim::seconds(30));
  EXPECT_TRUE(home->camera->capturing());
  home->remote->press(unit.value(), x10::FunctionCode::kOff);
  sched.run_for(sim::seconds(30));
  EXPECT_FALSE(home->camera->capturing());
}

TEST_F(SmartHomeTest, JiniIslandControlsHaviVcr) {
  auto r = via(*home->jini_adapter, "vcr-1", "record", {Value(1)});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(home->vcr->state(), havi::TransportState::kRecord);
}

TEST_F(SmartHomeTest, HaviIslandControlsX10Lamp) {
  auto r = via(*home->havi_adapter, "desk-lamp", "turnOn", {});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(home->lamp->is_on());
}

TEST_F(SmartHomeTest, X10IslandQueriesJiniLaserdisc) {
  auto r = via(*home->x10_adapter, "desk-lamp", "turnOn", {});
  ASSERT_TRUE(r.is_ok());
  // And the HAVi island can read back cross-island state.
  auto status = via(*home->havi_adapter, "laserdisc-1", "getStatus", {});
  ASSERT_TRUE(status.is_ok()) << status.status().to_string();
  EXPECT_EQ(status.value().at("powered"), Value(false));
}

TEST_F(SmartHomeTest, CrossCallResultEqualsNativeResult) {
  // Native Jini call:
  auto native = via(*home->jini_adapter, "laserdisc-1", "getStatus", {});
  // Same service through HAVi (SP -> SOAP -> CP -> Jini):
  auto bridged = via(*home->havi_adapter, "laserdisc-1", "getStatus", {});
  ASSERT_TRUE(native.is_ok());
  ASSERT_TRUE(bridged.is_ok());
  EXPECT_EQ(native.value(), bridged.value());
}

TEST_F(SmartHomeTest, AnyIslandCanSendMail) {
  auto r = via(*home->havi_adapter, "mail-home", "sendMail",
               {Value("alice"), Value("recording done"),
                Value("tape is full")});
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(home->mail_server->mailbox_size("alice"), 1u);
}

TEST_F(SmartHomeTest, IncomingMailInvokesService) {
  // Mail an invocation to the desk lamp's service mailbox; the mail
  // PCM polls, converts and invokes; a result mail comes back.
  mail::MailClient sender(home->net, home->laserdisc_node->id(),
                          home->mail_node->id());
  mail::Message m;
  m.from = "alice";
  m.to = "svc-desk-lamp";
  m.subject = "turnOn";
  sender.send(m, [](const Status&) {});
  sched.run_for(sim::seconds(60));
  EXPECT_TRUE(home->lamp->is_on());
  EXPECT_GE(home->mail_server->mailbox_size("alice"), 1u);
}

TEST_F(SmartHomeTest, ErrorsTunnelAcrossIslands) {
  // play on a powered-off laserdisc fails natively; the same error
  // must surface across the bridge with its code intact.
  auto r = via(*home->havi_adapter, "laserdisc-1", "play", {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST_F(SmartHomeTest, GatewayFailureIsolatesIslandButNotLocals) {
  home->x10_gw->set_up(false);
  // Cross-island call to the lamp fails...
  auto r = via(*home->jini_adapter, "desk-lamp", "turnOn", {});
  EXPECT_FALSE(r.is_ok());
  // ...but intra-island Jini keeps working untouched.
  auto local = via(*home->jini_adapter, "laserdisc-1", "turnOn", {});
  EXPECT_TRUE(local.is_ok());
}

TEST_F(SmartHomeTest, BackboneFailureIsolatesAllIslands) {
  home->backbone->set_up(false);
  EXPECT_FALSE(via(*home->jini_adapter, "desk-lamp", "turnOn", {}).is_ok());
  EXPECT_FALSE(via(*home->havi_adapter, "laserdisc-1", "turnOn", {}).is_ok());
  // Native paths unaffected.
  EXPECT_TRUE(via(*home->x10_adapter, "desk-lamp", "turnOn", {}).is_ok());
  EXPECT_TRUE(home->lamp->is_on());
}

TEST_F(SmartHomeTest, RefreshIsIdempotent) {
  auto before = home->vsr->registry().size();
  ASSERT_TRUE(home->refresh().is_ok());
  ASSERT_TRUE(home->refresh().is_ok());
  EXPECT_EQ(home->vsr->registry().size(), before);
  EXPECT_EQ(home->lookup->service_count(), 8u);  // no duplicates
}

TEST_F(SmartHomeTest, DepartedServiceIsRetiredEverywhere) {
  ASSERT_TRUE(home->x10_adapter->unit_for("laserdisc-1").is_ok());
  // The laserdisc leaves the Jini network abruptly (no graceful
  // cancel): its lookup lease lapses, then a sync pass retires it.
  home->laserdisc.reset();
  sched.run_for(sim::seconds(35));  // > the 30 s registration lease
  ASSERT_TRUE(home->refresh().is_ok());
  // VSR no longer advertises it; X10 binding is gone.
  EXPECT_EQ(home->vsr->registry().size(), 7u);
  EXPECT_FALSE(home->x10_adapter->unit_for("laserdisc-1").is_ok());
}

TEST_F(SmartHomeTest, NewServiceAppearsAfterRefresh) {
  // Plug a new X10 appliance in by reconfiguring the island (X10 has
  // no discovery, so arrival = configuration + refresh)... exercised
  // instead with a second Jini service, which *does* self-announce.
  net::BinaryRpcServer jini_server(home->net, home->laserdisc_node->id(), 4270,
                                   "jini");
  ASSERT_TRUE(jini_server.start().is_ok());
  jini_server.register_service(
      "cd-1", [](const std::string&, const ValueList&, InvokeResultFn done) {
        done(Value(true));
      });
  jini::ServiceItem item;
  item.service_id = "cd-1";
  item.name = "cd-1";
  item.interface = InterfaceDesc{
      "MediaPlayer", {MethodDesc{"play", {}, ValueType::kBool, false}}};
  item.endpoint = {home->laserdisc_node->id(), 4270};
  jini::Registrar registrar(home->net, home->laserdisc_node->id(),
                            home->lookup->endpoint(), item);
  registrar.join([](const Status&) {});
  sched.run_for(sim::seconds(2));

  ASSERT_TRUE(home->refresh().is_ok());
  EXPECT_EQ(home->vsr->registry().size(), 9u);
  // Reachable from HAVi immediately after the sync.
  auto r = via(*home->havi_adapter, "cd-1", "play", {});
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
}

TEST_F(SmartHomeTest, VsrLeaseExpiryDropsSilentIsland) {
  // If an island's PCM stops refreshing (gateway crash), its VSR
  // entries lapse after the publish TTL and others retire the proxies.
  home->jini_gw->set_up(false);
  sched.run_until(sched.now() + core::Pcm::kPublishTtl +
                  sim::seconds(10));
  // The refresh reports the dead island's error but still syncs the
  // healthy islands.
  (void)home->refresh();
  EXPECT_FALSE(home->x10_adapter->unit_for("laserdisc-1").is_ok());
}

TEST(SmartHomeBinaryTest, BinaryVsgProtocolWorksEndToEnd) {
  sim::Scheduler sched;
  SmartHomeOptions options;
  options.protocol = core::VsgProtocol::kBinary;
  SmartHome home(sched, options);
  ASSERT_TRUE(home.refresh().is_ok());
  std::optional<Result<Value>> result;
  home.jini_adapter->invoke("desk-lamp", "turnOn", {},
                            [&](Result<Value> r) { result = std::move(r); });
  sim::run_until_done(sched, [&] { return result.has_value(); });
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok()) << result->status().to_string();
  EXPECT_TRUE(home.lamp->is_on());
}

}  // namespace
}  // namespace hcm::testbed
