// Unit tests for the PCM adapters' conversion policies (the pieces not
// already covered by the whole-home integration tests).
#include <gtest/gtest.h>

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
