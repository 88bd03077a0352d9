// Unit tests for the PCM adapters' conversion policies (the pieces not
// already covered by the whole-home integration tests).
#include <gtest/gtest.h>

#include <optional>

#include "core/adapters/mail_adapter.hpp"
#include "core/adapters/x10_adapter.hpp"
#include "testbed/home.hpp"

namespace hcm::core {
namespace {

// --- MailAdapter::parse_arg: the mail-body argument convention --------

TEST(MailArgParsing, Integers) {
  EXPECT_EQ(MailAdapter::parse_arg("42"), Value(42));
  EXPECT_EQ(MailAdapter::parse_arg("-7"), Value(-7));
  EXPECT_EQ(MailAdapter::parse_arg("0"), Value(0));
}

TEST(MailArgParsing, Doubles) {
  EXPECT_EQ(MailAdapter::parse_arg("3.5"), Value(3.5));
  EXPECT_EQ(MailAdapter::parse_arg("-0.25"), Value(-0.25));
}

TEST(MailArgParsing, Booleans) {
  EXPECT_EQ(MailAdapter::parse_arg("true"), Value(true));
  EXPECT_EQ(MailAdapter::parse_arg("false"), Value(false));
}

TEST(MailArgParsing, StringsAndTrimming) {
  EXPECT_EQ(MailAdapter::parse_arg("hello world"), Value("hello world"));
  EXPECT_EQ(MailAdapter::parse_arg("  padded  "), Value("padded"));
  // Mixed alphanumerics stay strings.
  EXPECT_EQ(MailAdapter::parse_arg("42abc"), Value("42abc"));
  EXPECT_EQ(MailAdapter::parse_arg("1.2.3"), Value("1.2.3"));
}

// --- MailAdapter: watcher lifetime ------------------------------------

TEST(MailAdapterLifetime, UnexportMidFetchIsSafe) {
  // Unexport destroys the service's mailbox watcher. Caught at several
  // points of its first poll — POP connect in flight, dialogue under
  // way — the poll's completions must not touch the freed watcher.
  for (int at_ms : {1, 20, 40, 60, 80, 120}) {
    sim::Scheduler sched;
    net::Network net{sched};
    auto& gateway = net.add_node("gateway");
    auto& host = net.add_node("mail-host");
    auto& eth = net.add_ethernet("internet", sim::milliseconds(20),
                                 10'000'000);
    net.attach(gateway, eth);
    net.attach(host, eth);
    mail::MailServer server(net, host.id());
    ASSERT_TRUE(server.start().is_ok());
    MailAdapter adapter(net, gateway.id(), host.id(), "home",
                        sim::seconds(5));
    LocalService service;
    service.name = "lamp";
    service.interface = InterfaceDesc{
        "Lamp", {MethodDesc{"on", {}, ValueType::kBool, false}}};
    ASSERT_TRUE(adapter
                    .export_service(service,
                                    [](const std::string&, const ValueList&,
                                       InvokeResultFn done) {
                                      done(Value(true));
                                    })
                    .is_ok());
    sched.run_until(sim::seconds(5) + sim::milliseconds(at_ms));
    adapter.unexport_service("lamp");
    sched.run_until(sim::seconds(30));
  }
}

// --- X10Adapter: ON/OFF method mapping policy --------------------------

class X10MappingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node = &net.add_node("x10-gw");
    powerline = &net.add_powerline("pl");
    net.attach(*node, *powerline);
    cm11a = std::make_unique<x10::Cm11aController>(net, node->id(),
                                                   *powerline);
    adapter = std::make_unique<X10Adapter>(net, *cm11a,
                                           std::vector<X10DeviceConfig>{});
  }

  Status export_with(const InterfaceDesc& iface, const ValueMap& attrs = {}) {
    LocalService service;
    service.name = "svc-" + std::to_string(++counter);
    service.interface = iface;
    service.attributes = attrs;
    return adapter->export_service(
        service, [](const std::string&, const ValueList&,
                    InvokeResultFn done) { done(Value(true)); });
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* node = nullptr;
  net::PowerlineSegment* powerline = nullptr;
  std::unique_ptr<x10::Cm11aController> cm11a;
  std::unique_ptr<X10Adapter> adapter;
  int counter = 0;
};

TEST_F(X10MappingTest, ConventionalNamesMap) {
  for (const char* on_name :
       {"turnOn", "powerOn", "play", "startCapture", "start"}) {
    InterfaceDesc iface{
        "I", {MethodDesc{on_name, {}, ValueType::kBool, false}}};
    EXPECT_TRUE(export_with(iface).is_ok()) << on_name;
  }
}

TEST_F(X10MappingTest, ArgumentMethodsDoNotMap) {
  InterfaceDesc iface{
      "Mail",
      {MethodDesc{"sendMail",
                  {{"to", ValueType::kString}, {"s", ValueType::kString}},
                  ValueType::kBool,
                  false}}};
  auto status = export_with(iface);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(X10MappingTest, HintAttributesOverrideConvention) {
  InterfaceDesc iface{
      "Odd",
      {MethodDesc{"activate", {}, ValueType::kBool, false},
       MethodDesc{"deactivate", {}, ValueType::kBool, false}}};
  ValueMap attrs{{"x10.on", Value("activate")},
                 {"x10.off", Value("deactivate")}};
  EXPECT_TRUE(export_with(iface, attrs).is_ok());
}

TEST_F(X10MappingTest, UnitPoolExhaustsAtSixteen) {
  InterfaceDesc iface{"I", {MethodDesc{"turnOn", {}, ValueType::kBool,
                                       false}}};
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(export_with(iface).is_ok()) << "unit " << i;
  }
  auto status = export_with(iface);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST_F(X10MappingTest, UnexportFreesName) {
  InterfaceDesc iface{"I", {MethodDesc{"turnOn", {}, ValueType::kBool,
                                       false}}};
  LocalService service;
  service.name = "re-exportable";
  service.interface = iface;
  auto handler = [](const std::string&, const ValueList&,
                    InvokeResultFn done) { done(Value(true)); };
  ASSERT_TRUE(adapter->export_service(service, handler).is_ok());
  ASSERT_TRUE(adapter->unit_for("re-exportable").is_ok());
  adapter->unexport_service("re-exportable");
  EXPECT_FALSE(adapter->unit_for("re-exportable").is_ok());
  EXPECT_TRUE(adapter->export_service(service, handler).is_ok());
}

TEST_F(X10MappingTest, UnitsAreDistinct) {
  InterfaceDesc iface{"I", {MethodDesc{"turnOn", {}, ValueType::kBool,
                                       false}}};
  ASSERT_TRUE(export_with(iface).is_ok());
  ASSERT_TRUE(export_with(iface).is_ok());
  auto u1 = adapter->unit_for("svc-1");
  auto u2 = adapter->unit_for("svc-2");
  ASSERT_TRUE(u1.is_ok());
  ASSERT_TRUE(u2.is_ok());
  EXPECT_NE(u1.value(), u2.value());
}

// --- HAVi and Jini list_services: what the PCM refresh reads ---------

std::vector<LocalService> list_now(sim::Scheduler& sched,
                                   MiddlewareAdapter& adapter) {
  std::optional<Result<std::vector<LocalService>>> got;
  adapter.list_services(
      [&](Result<std::vector<LocalService>> r) { got = std::move(r); });
  sim::run_until_done(sched, [&] { return got.has_value(); });
  EXPECT_TRUE(got.has_value() && got->is_ok());
  if (!got.has_value() || !got->is_ok()) return {};
  return std::move(*got).take();
}

const LocalService* find_service(const std::vector<LocalService>& services,
                                 const std::string& name) {
  for (const auto& s : services) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool is_imported(const ValueMap& attrs) {
  auto it = attrs.find("hcm.imported");
  return it != attrs.end() && it->second == Value(true);
}

class AdapterListingTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(home.refresh().is_ok()); }

  // Names of the server proxies `records` carry (hcm.imported set).
  static std::vector<std::string> imported_names(
      const std::vector<havi::RegistryRecord>& records) {
    std::vector<std::string> out;
    for (const auto& r : records) {
      if (is_imported(r.attributes)) {
        out.push_back(r.attributes.at(havi::kAttrName).as_string());
      }
    }
    return out;
  }

  sim::Scheduler sched;
  testbed::SmartHome home{sched};
};

TEST_F(AdapterListingTest, HaviListsNativeFcmsWithTheirRegisteredDescription) {
  auto services = list_now(sched, *home.havi_adapter);
  for (const havi::Fcm* fcm : std::vector<const havi::Fcm*>{
           home.vcr, home.camera, home.display, home.tuner}) {
    const LocalService* s = find_service(services, fcm->name());
    ASSERT_NE(s, nullptr) << fcm->name();
    EXPECT_EQ(s->interface, fcm->interface()) << fcm->name();
    EXPECT_EQ(s->attributes, fcm->attributes()) << fcm->name();
  }
}

TEST_F(AdapterListingTest, HaviSkipsServerProxiesItExported) {
  // The refresh exported the other islands' services into HAVi; the
  // registry holds them, the listing must not.
  auto& ms = home.fav->messaging;
  const havi::Seid self = ms.register_element(
      [](const std::string&, const ValueList&, InvokeResultFn done) {
        done(Value());
      });
  havi::RegistryClient registry(ms, self, home.fav->registry.seid());
  std::optional<Result<havi::RegistryListing>> listing;
  registry.get_elements(
      ValueMap{{havi::kAttrSeType, Value("FCM")}},
      [&](Result<havi::RegistryListing> r) { listing = std::move(r); });
  sim::run_until_done(sched, [&] { return listing.has_value(); });
  ms.unregister_element(self);
  ASSERT_TRUE(listing.has_value() && listing->is_ok());
  const auto imported = imported_names(listing->value().records);
  ASSERT_FALSE(imported.empty());

  auto services = list_now(sched, *home.havi_adapter);
  for (const auto& name : imported) {
    EXPECT_EQ(find_service(services, name), nullptr) << name;
  }
  for (const auto& s : services) EXPECT_FALSE(is_imported(s.attributes));
}

TEST_F(AdapterListingTest, HaviFcmFromAListingIsInvocable) {
  // A fresh adapter learns the VCR only from its own listing, which
  // keeps just the SEID per name.
  HaviAdapter adapter(home.fav->messaging, home.fav->registry.seid());
  ASSERT_NE(find_service(list_now(sched, adapter), "vcr-1"), nullptr);
  std::optional<Result<Value>> recording;
  adapter.invoke("vcr-1", "record", {Value(1)},
                 [&](Result<Value> r) { recording = std::move(r); });
  sim::run_until_done(sched, [&] { return recording.has_value(); });
  ASSERT_TRUE(recording.has_value() && recording->is_ok());
  EXPECT_EQ(recording->value(), Value(true));
  std::optional<Result<Value>> state;
  adapter.invoke("vcr-1", "getTransportState", {},
                 [&](Result<Value> r) { state = std::move(r); });
  sim::run_until_done(sched, [&] { return state.has_value(); });
  ASSERT_TRUE(state.has_value() && state->is_ok());
  EXPECT_EQ(state->value(), Value("RECORD"));
}

TEST_F(AdapterListingTest, JiniListsNativeServicesAndSkipsServerProxies) {
  auto services = list_now(sched, *home.jini_adapter);
  const LocalService* laserdisc = find_service(services, "laserdisc-1");
  ASSERT_NE(laserdisc, nullptr);
  EXPECT_EQ(laserdisc->interface,
            testbed::LaserdiscPlayer::describe_interface());
  EXPECT_EQ(laserdisc->attributes,
            (ValueMap{{"vendor", Value("pioneer")}}));

  // Server proxies the refresh registered with the LUS stay out.
  jini::LookupClient lookup(home.net, home.jini_gw->id(),
                            home.lookup->endpoint());
  std::optional<Result<jini::ServiceMatches>> proxies;
  lookup.lookup("", ValueMap{{"hcm.imported", Value(true)}},
                [&](Result<jini::ServiceMatches> r) { proxies = std::move(r); });
  sim::run_until_done(sched, [&] { return proxies.has_value(); });
  ASSERT_TRUE(proxies.has_value() && proxies->is_ok());
  ASSERT_FALSE(proxies->value().items.empty());
  for (const auto& item : proxies->value().items) {
    EXPECT_EQ(find_service(services, item.name), nullptr) << item.name;
  }
  for (const auto& s : services) EXPECT_FALSE(is_imported(s.attributes));
}

TEST_F(AdapterListingTest, JiniServiceRemovedFromTheLusDropsOut) {
  jini::ServiceItem item;
  item.service_id = "clock-1";
  item.name = "clock-1";
  item.interface = InterfaceDesc{
      "Clock", {MethodDesc{"now", {}, ValueType::kInt, false}}};
  item.endpoint = {home.laserdisc_node->id(), 4170};
  item.attributes = ValueMap{{"room", Value("den")}};
  jini::Registrar registrar(home.net, home.laserdisc_node->id(),
                            home.lookup->endpoint(), item);
  std::optional<Status> joined;
  registrar.join([&](const Status& s) { joined = s; });
  sim::run_until_done(sched, [&] { return joined.has_value(); });
  ASSERT_TRUE(joined.has_value() && joined->is_ok());
  // The listing answers from the adapter's change feed, and the LUS's
  // REGISTERED event may still be on its way when the join reply is in.
  const auto feed_caught_up = [&] {
    return home.jini_adapter->feed_seq() == home.lookup->seq();
  };
  sim::run_until_done(sched, feed_caught_up, 10'000);
  ASSERT_TRUE(feed_caught_up());

  auto before = list_now(sched, *home.jini_adapter);
  const LocalService* clock = find_service(before, "clock-1");
  ASSERT_NE(clock, nullptr);
  EXPECT_EQ(clock->interface, item.interface);
  EXPECT_EQ(clock->attributes, item.attributes);

  std::optional<Status> cancelled;
  registrar.cancel([&](const Status& s) { cancelled = s; });
  sim::run_until_done(sched, [&] { return cancelled.has_value(); });
  ASSERT_TRUE(cancelled.has_value() && cancelled->is_ok());
  sim::run_until_done(sched, feed_caught_up, 10'000);  // the REMOVED event
  ASSERT_TRUE(feed_caught_up());
  auto after = list_now(sched, *home.jini_adapter);
  EXPECT_EQ(find_service(after, "clock-1"), nullptr);
  EXPECT_NE(find_service(after, "laserdisc-1"), nullptr);
}

// --- Mail island end-to-end with custom poll interval -------------------

TEST(MailIslandPolling, PollIntervalBoundsNotificationLatency) {
  sim::Scheduler sched;
  testbed::SmartHomeOptions options;
  options.mail_poll = sim::seconds(20);
  testbed::SmartHome home(sched, options);
  ASSERT_TRUE(home.refresh().is_ok());

  mail::MailClient sender(home.net, home.laserdisc_node->id(),
                          home.mail_node->id());
  mail::Message m;
  m.from = "bob";
  m.to = "svc-desk-lamp";
  m.subject = "turnOn";
  sim::SimTime t0 = sched.now();
  sender.send(m, [](const Status&) {});
  sim::run_until_done(sched, [&] { return home.lamp->is_on(); },
                      5'000'000);
  ASSERT_TRUE(home.lamp->is_on());
  auto latency = sched.now() - t0;
  EXPECT_GT(latency, sim::seconds(1));
  EXPECT_LE(latency, sim::seconds(25));  // one poll interval + slack
}

}  // namespace
}  // namespace hcm::core
