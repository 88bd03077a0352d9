#include "upnp/upnp.hpp"

#include <gtest/gtest.h>

#include "http/client.hpp"
#include "http/server.hpp"
#include "tests/xml/xml_drain.hpp"

namespace hcm::upnp {
namespace {

InterfaceDesc lamp_interface() {
  return InterfaceDesc{
      "BinaryLight",
      {MethodDesc{"setTarget", {{"on", ValueType::kBool}}, ValueType::kBool,
                  false},
       MethodDesc{"getTarget", {}, ValueType::kBool, false}}};
}

class UpnpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_node = &net.add_node("smart-plug");
    cp_node = &net.add_node("controller");
    auto& eth = net.add_ethernet("lan", sim::microseconds(200), 100'000'000);
    net.attach(*device_node, eth);
    net.attach(*cp_node, eth);

    device = std::make_unique<UpnpDevice>(net, device_node->id(),
                                          "Smart Plug");
    device->add_service("plug-1", lamp_interface(),
                        [this](const std::string& method,
                               const ValueList& args, InvokeResultFn done) {
                          if (method == "setTarget") {
                            on = args[0].as_bool();
                            done(Value(true));
                          } else if (method == "getTarget") {
                            done(Value(on));
                          } else {
                            done(not_found(method));
                          }
                        });
    ASSERT_TRUE(device->start().is_ok());
    cp = std::make_unique<ControlPoint>(net, cp_node->id());
  }

  std::vector<DeviceDescription> discover() {
    std::optional<std::vector<DeviceDescription>> found;
    cp->search(sim::milliseconds(100),
               [&](std::vector<DeviceDescription> d) { found = std::move(d); });
    sched.run();
    EXPECT_TRUE(found.has_value());
    return found.value_or(std::vector<DeviceDescription>{});
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* device_node = nullptr;
  net::Node* cp_node = nullptr;
  std::unique_ptr<UpnpDevice> device;
  std::unique_ptr<ControlPoint> cp;
  bool on = false;
};

TEST_F(UpnpTest, SearchFindsDeviceAndServices) {
  auto devices = discover();
  ASSERT_EQ(devices.size(), 1u);
  EXPECT_EQ(devices[0].friendly_name, "Smart Plug");
  EXPECT_FALSE(devices[0].udn.empty());
  ASSERT_EQ(devices[0].services.size(), 1u);
  EXPECT_EQ(devices[0].services[0].service_id, "plug-1");
  EXPECT_EQ(devices[0].services[0].interface, lamp_interface());
}

TEST_F(UpnpTest, InvokeActionRoundTrip) {
  auto devices = discover();
  ASSERT_EQ(devices.size(), 1u);
  const auto& svc = devices[0].services[0];

  std::optional<Result<Value>> result;
  cp->invoke(svc, "setTarget", {Value(true)},
             [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->is_ok()) << result->status().to_string();
  EXPECT_TRUE(on);

  std::optional<Result<Value>> get;
  cp->invoke(svc, "getTarget", {}, [&](Result<Value> r) { get = std::move(r); });
  sched.run();
  ASSERT_TRUE(get->is_ok());
  EXPECT_EQ(get->value(), Value(true));
}

TEST_F(UpnpTest, InvokeValidatesArguments) {
  auto devices = discover();
  const auto& svc = devices[0].services[0];
  std::optional<Result<Value>> result;
  cp->invoke(svc, "setTarget", {Value("yes")},
             [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->is_ok());
}

TEST_F(UpnpTest, UnknownActionRejected) {
  auto devices = discover();
  const auto& svc = devices[0].services[0];
  std::optional<Result<Value>> result;
  cp->invoke(svc, "explode", {}, [&](Result<Value> r) { result = std::move(r); });
  sched.run();
  EXPECT_FALSE(result->is_ok());
}

TEST_F(UpnpTest, MultipleDevicesDiscovered) {
  UpnpDevice second(net, net.add_node("tv").id(), "Television", 5001);
  net.attach(*net.find_node("tv"),
             *net.segments()[0]);  // same LAN
  second.add_service("tv-1", lamp_interface(),
                     [](const std::string&, const ValueList&,
                        InvokeResultFn done) { done(Value(true)); });
  ASSERT_TRUE(second.start().is_ok());
  auto devices = discover();
  EXPECT_EQ(devices.size(), 2u);
}

TEST_F(UpnpTest, SearchWithNoDevices) {
  device_node->set_up(false);
  auto devices = discover();
  EXPECT_TRUE(devices.empty());
}

TEST_F(UpnpTest, DescriptionIsValidXmlOverHttp) {
  http::HttpClient http(net, cp_node->id());
  std::optional<Result<http::Response>> resp;
  http::Request req;
  req.target = "/description.xml";
  http.request(device->http_endpoint(), std::move(req),
               [&](Result<http::Response> r) { resp = std::move(r); });
  sched.run();
  ASSERT_TRUE(resp.has_value() && resp->is_ok());
  EXPECT_TRUE(xml::xmltest::drain(resp->value().body).is_ok());
  auto doc = parse_device_description(resp->value().body);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_EQ(doc.value().friendly_name, "Smart Plug");
}

// A map payload whose keys cover every value shape, including one that
// is not an XML name (it rides in an <entry key="..."> element).
Value notify_payload() {
  return Value(ValueMap{
      {"level", Value(0.5)},
      {"http.server#2 <x>", Value(ValueList{Value(7), Value("a&b"), Value()})},
      {"raw", Value(Bytes{0, 1, 255})},
      {"on", Value(true)},
      {"empty", Value("")}});
}

TEST_F(UpnpTest, DescriptionBytesArePinned) {
  net::Node& lamp_node = net.add_node("lamp");
  net.attach(lamp_node, *net.segments()[0]);
  UpnpDevice lamp(net, lamp_node.id(), "Lamp \"A\" & <B>");
  auto handler = [](const std::string&, const ValueList&,
                    InvokeResultFn done) { done(Value(true)); };
  lamp.add_service("light-1", lamp_interface(), handler);
  lamp.add_service("dimmer-2", lamp_interface(), handler);
  ASSERT_TRUE(lamp.start().is_ok());

  http::HttpClient http(net, cp_node->id());
  std::optional<Result<http::Response>> resp;
  http::Request req;
  req.target = "/description.xml";
  http.request(lamp.http_endpoint(), std::move(req),
               [&](Result<http::Response> r) { resp = std::move(r); });
  sched.run();
  ASSERT_TRUE(resp.has_value() && resp->is_ok());
  EXPECT_EQ(resp->value().body,
            R"xml(<?xml version="1.0"?><root xmlns="urn:schemas-upnp-org:device-1-0"><device><friendlyName>Lamp "A" &amp; &lt;B&gt;</friendlyName><UDN>)xml" +
                lamp.udn() +
                R"xml(</UDN><serviceList><service><serviceId>dimmer-2</serviceId><controlURL>/control/dimmer-2</controlURL><SCPDURL>/scpd/dimmer-2</SCPDURL></service><service><serviceId>light-1</serviceId><controlURL>/control/light-1</controlURL><SCPDURL>/scpd/light-1</SCPDURL></service></serviceList></device></root>)xml");
}

TEST_F(UpnpTest, NotifyBodyBytesArePinned) {
  // A bare HTTP sink stands in for the control point, so the test sees
  // the GENA propertyset exactly as the device renders it.
  http::HttpServer sink(net, cp_node->id(), 6000);
  ASSERT_TRUE(sink.start().is_ok());
  std::string body;
  sink.route("/sink", [&](const http::Request& r, http::RespondFn respond) {
    body = r.body;
    respond(http::Response::make(200, "OK", ""));
  });
  http::HttpClient http(net, cp_node->id());
  http::Request sub;
  sub.method = "SUBSCRIBE";
  sub.target = "/gena/plug-1";
  sub.set_header("CALLBACK",
                 "<http://node-" + std::to_string(cp_node->id()) + ":6000/sink>");
  http.request(device->http_endpoint(), std::move(sub),
               [](Result<http::Response>) {});
  sched.run();
  ASSERT_EQ(device->subscriber_count("plug-1"), 1u);

  device->post_event("plug-1", "levelChanged", notify_payload());
  sched.run();
  EXPECT_EQ(
      body,
      R"xml(<propertyset><service xsi:type="xsd:string">plug-1</service><event xsi:type="xsd:string">levelChanged</event><payload xsi:type="xsd:struct"><empty xsi:type="xsd:string"></empty><entry xsi:type="SOAP-ENC:Array" key="http.server#2 &lt;x&gt;"><item xsi:type="xsd:long">7</item><item xsi:type="xsd:string">a&amp;b</item><item xsi:type="xsd:anyType" xsi:nil="true"/></entry><level xsi:type="xsd:double">0.5</level><on xsi:type="xsd:boolean">true</on><raw xsi:type="xsd:base64Binary">AAH/</raw></payload></propertyset>)xml");
}

class UpnpNotifyTest : public UpnpTest {
 protected:
  // Subscribes the control point to plug-1 and records what its event
  // handler sees.
  void subscribe() {
    auto devices = discover();
    ASSERT_EQ(devices.size(), 1u);
    std::optional<Result<std::string>> sid;
    cp->subscribe(
        devices[0].services[0],
        [this](const std::string& service, const std::string& event,
               const Value& payload) {
          ++events;
          last_service = service;
          last_event = event;
          last_payload = payload;
        },
        [&](Result<std::string> r) { sid = std::move(r); });
    sched.run();
    ASSERT_TRUE(sid.has_value() && sid->is_ok());
    sid_ = sid->value();
  }

  // Sends a raw NOTIFY to the control point's callback server.
  int notify(std::string body) {
    http::HttpClient http(net, device_node->id());
    http::Request req;
    req.method = "NOTIFY";
    req.target = "/notify";
    req.set_header("SID", sid_);
    req.body = std::move(body);
    std::optional<Result<http::Response>> resp;
    // 5390 is the ControlPoint's GENA callback port.
    http.request({cp_node->id(), 5390}, std::move(req),
                 [&](Result<http::Response> r) { resp = std::move(r); });
    sched.run();
    EXPECT_TRUE(resp.has_value() && resp->is_ok());
    return resp.has_value() && resp->is_ok() ? resp->value().status : -1;
  }

  std::string sid_;
  int events = 0;
  std::string last_service;
  std::string last_event;
  Value last_payload;
};

TEST_F(UpnpNotifyTest, PostedEventReachesTheHandler) {
  ASSERT_NO_FATAL_FAILURE(subscribe());
  device->post_event("plug-1", "levelChanged", notify_payload());
  sched.run();
  EXPECT_EQ(events, 1);
  EXPECT_EQ(last_service, "plug-1");
  EXPECT_EQ(last_event, "levelChanged");
  EXPECT_EQ(last_payload, notify_payload());
}

TEST_F(UpnpNotifyTest, UnknownChildrenAreSkipped) {
  ASSERT_NO_FATAL_FAILURE(subscribe());
  EXPECT_EQ(notify("<propertyset><vendor><x>1</x></vendor>"
                   "<event xsi:type=\"xsd:string\">e</event>"
                   "<payload xsi:type=\"xsd:long\">4</payload></propertyset>"),
            200);
  EXPECT_EQ(events, 1);
  EXPECT_EQ(last_event, "e");
  EXPECT_EQ(last_payload, Value(4));
}

TEST_F(UpnpNotifyTest, MalformedScalarGets400AndNoEvent) {
  ASSERT_NO_FATAL_FAILURE(subscribe());
  EXPECT_EQ(notify("<propertyset><event xsi:type=\"xsd:string\">e</event>"
                   "<payload xsi:type=\"xsd:long\">4x</payload></propertyset>"),
            400);
  EXPECT_EQ(events, 0);
}

TEST_F(UpnpNotifyTest, HostileNestingGets400WithoutCrashing) {
  ASSERT_NO_FATAL_FAILURE(subscribe());
  // ~700 KB: a payload nested 100,000 elements deep.
  constexpr int kDepth = 100'000;
  std::string body = "<propertyset><payload>";
  body.reserve(kDepth * 7 + 64);
  for (int i = 0; i < kDepth; ++i) body += "<a>";
  body += "x";
  for (int i = 0; i < kDepth; ++i) body += "</a>";
  body += "</payload></propertyset>";
  EXPECT_EQ(notify(std::move(body)), 400);
  EXPECT_EQ(events, 0);
}

// --- parse_device_description ---------------------------------------
// Expectations captured from the tree-based reader the pull-parser walk
// replaced.

TEST(UpnpDescriptionTest, PinnedBytesDecode) {
  // The document UpnpTest.DescriptionBytesArePinned pins.
  auto d = parse_device_description(
      R"xml(<?xml version="1.0"?><root xmlns="urn:schemas-upnp-org:device-1-0"><device><friendlyName>Lamp "A" &amp; &lt;B&gt;</friendlyName><UDN>uuid:hcm-7</UDN><serviceList><service><serviceId>dimmer-2</serviceId><controlURL>/control/dimmer-2</controlURL><SCPDURL>/scpd/dimmer-2</SCPDURL></service><service><serviceId>light-1</serviceId><controlURL>/control/light-1</controlURL><SCPDURL>/scpd/light-1</SCPDURL></service></serviceList></device></root>)xml");
  ASSERT_TRUE(d.is_ok()) << d.status().to_string();
  EXPECT_EQ(d.value().friendly_name, "Lamp \"A\" & <B>");
  EXPECT_EQ(d.value().udn, "uuid:hcm-7");
  const std::vector<std::pair<std::string, std::string>> want{
      {"dimmer-2", "/scpd/dimmer-2"}, {"light-1", "/scpd/light-1"}};
  EXPECT_EQ(d.value().scpds, want);
}

TEST(UpnpDescriptionTest, ForeignFormKeepsTreeTextSemantics) {
  auto d = parse_device_description(
      "<?xml version=\"1.0\"?>\n<!-- vendor -->\n"
      "<u:desc xmlns:u=\"urn:x\">\n"
      "  <u:device>\n"
      "    <u:friendlyName>  Padded <b>bold</b>name  </u:friendlyName>\n"
      "    <u:friendlyName>second</u:friendlyName>\n"
      "    <UDN><![CDATA[ uuid:a&b ]]>  <![CDATA[  ]]>x</UDN>\n"
      "    <extra><serviceList><service><serviceId>decoy</serviceId>"
      "<SCPDURL>/decoy</SCPDURL></service></serviceList></extra>\n"
      "    <u:serviceList>\n"
      "      <u:service><u:serviceId>svc&#45;1</u:serviceId><unknown/>"
      "<u:SCPDURL>/scpd/1</u:SCPDURL><u:SCPDURL>/ignored</u:SCPDURL>"
      "</u:service>\n"
      "      <u:service><u:serviceId>no-scpd</u:serviceId></u:service>\n"
      "      <other><u:service><u:serviceId>deep</u:serviceId>"
      "<u:SCPDURL>/deep</u:SCPDURL></u:service></other>\n"
      "      <u:service><u:SCPDURL>/s2</u:SCPDURL>"
      "<u:serviceId>svc-2</u:serviceId></u:service>\n"
      "    </u:serviceList>\n"
      "    <serviceList><service><serviceId>second-list</serviceId>"
      "<SCPDURL>/2</SCPDURL></service></serviceList>\n"
      "  </u:device>\n"
      "</u:desc>\n");
  ASSERT_TRUE(d.is_ok()) << d.status().to_string();
  EXPECT_EQ(d.value().friendly_name, "  Padded name  ");
  EXPECT_EQ(d.value().udn, " uuid:a&b   x");
  const std::vector<std::pair<std::string, std::string>> want{
      {"svc-1", "/scpd/1"}, {"svc-2", "/s2"}};
  EXPECT_EQ(d.value().scpds, want);
}

TEST(UpnpDescriptionTest, MissingPartsAndBadInput) {
  auto bare = parse_device_description("<root><device/></root>");
  ASSERT_TRUE(bare.is_ok()) << bare.status().to_string();
  EXPECT_EQ(bare.value().friendly_name, "");
  EXPECT_TRUE(bare.value().scpds.empty());
  for (const char* bad : {
           "<root><x><device/></x></root>",  // no direct <device> child
           "<root/>",
           "",
           "<root><device/></root><x/>",
           // A bad entity anywhere is rejected, used or not.
           "<root><device><icon a=\"&bad;\"/></device></root>",
           "<root><device/><note>&bad;</note></root>",
       }) {
    EXPECT_FALSE(parse_device_description(bad).is_ok()) << bad;
  }
}

TEST(UpnpDescriptionTest, HostileNestingIsRejectedWithoutCrashing) {
  constexpr int kDepth = 1'000'000;
  std::string doc = "<root><device><serviceList>";
  doc.reserve(static_cast<std::size_t>(kDepth) * 7 + 64);
  for (int i = 0; i < kDepth; ++i) doc += "<s>";
  for (int i = 0; i < kDepth; ++i) doc += "</s>";
  doc += "</serviceList></device></root>";
  EXPECT_FALSE(parse_device_description(doc).is_ok());
}

}  // namespace
}  // namespace hcm::upnp
