#include "soap/wsdl.hpp"

#include <gtest/gtest.h>

#include "core/adapters/x10_adapter.hpp"
#include "havi/fcm_av.hpp"
#include "testbed/home.hpp"
#include "tests/xml/xml_drain.hpp"

namespace hcm::soap {
namespace {

InterfaceDesc vcr_interface() {
  return InterfaceDesc{
      "VcrControl",
      {
          MethodDesc{"play", {}, ValueType::kBool, false},
          MethodDesc{"record",
                     {{"channel", ValueType::kInt},
                      {"durationMinutes", ValueType::kInt}},
                     ValueType::kBool,
                     false},
          MethodDesc{"status", {}, ValueType::kMap, false},
          MethodDesc{"powerEvent", {{"on", ValueType::kBool}},
                     ValueType::kNull, true},
      }};
}

TEST(WsdlTest, EmitParseRoundTrip) {
  auto iface = vcr_interface();
  Uri endpoint{"http", "havi-gw", 8080, "/vsg/vcr-1"};
  auto text = emit_wsdl(iface, "vcr-1", endpoint);
  auto doc = parse_wsdl(text);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_EQ(doc.value().interface, iface);
  EXPECT_EQ(doc.value().service_name, "vcr-1");
  EXPECT_EQ(doc.value().endpoint, endpoint);
}

TEST(WsdlTest, EmittedBytesArePinned) {
  // A method, a one-way method and an event, with a name that needs
  // attribute escaping.
  InterfaceDesc iface{
      "Lamp & Co",
      {MethodDesc{"setLevel",
                  {{"level", ValueType::kInt}, {"label", ValueType::kString}},
                  ValueType::kBool,
                  false},
       MethodDesc{"blink", {{"times", ValueType::kInt}}, ValueType::kNull,
                  true}},
      {MethodDesc{"levelChanged", {{"level", ValueType::kDouble}},
                  ValueType::kNull, true}}};
  EXPECT_EQ(
      emit_wsdl(iface, "lamp-1", Uri{"http", "node-3", 8080, "/vsg/lamp-1"}),
      R"xml(<?xml version="1.0" encoding="UTF-8"?><wsdl:definitions name="Lamp &amp; Co" targetNamespace="urn:hcm:Lamp &amp; Co" xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/" xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/" xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:tns="urn:hcm:Lamp &amp; Co"><wsdl:message name="setLevelInput"><wsdl:part name="level" type="xsd:long"/><wsdl:part name="label" type="xsd:string"/></wsdl:message><wsdl:message name="setLevelOutput"><wsdl:part name="return" type="xsd:boolean"/></wsdl:message><wsdl:message name="blinkInput"><wsdl:part name="times" type="xsd:long"/></wsdl:message><wsdl:message name="levelChangedInput"><wsdl:part name="level" type="xsd:double"/></wsdl:message><wsdl:portType name="Lamp &amp; CoPortType"><wsdl:operation name="setLevel"><wsdl:input message="tns:setLevelInput"/><wsdl:output message="tns:setLevelOutput"/></wsdl:operation><wsdl:operation name="blink"><wsdl:input message="tns:blinkInput"/></wsdl:operation></wsdl:portType><wsdl:portType name="Lamp &amp; CoEventsPortType"><wsdl:operation name="levelChanged"><wsdl:input message="tns:levelChangedInput"/></wsdl:operation></wsdl:portType><wsdl:binding name="Lamp &amp; CoBinding" type="tns:Lamp &amp; CoPortType"><soap:binding style="rpc" transport="http://schemas.xmlsoap.org/soap/http"/></wsdl:binding><wsdl:service name="lamp-1"><wsdl:port name="Lamp &amp; CoPort" binding="tns:Lamp &amp; CoBinding"><soap:address location="http://node-3:8080/vsg/lamp-1"/></wsdl:port></wsdl:service></wsdl:definitions>)xml");
}

TEST(WsdlTest, OneWayOperationHasNoOutput) {
  auto text = emit_wsdl(vcr_interface(), "vcr-1",
                        Uri{"http", "h", 1, "/"});
  auto doc = parse_wsdl(text);
  ASSERT_TRUE(doc.is_ok());
  const auto* m = doc.value().interface.find_method("powerEvent");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->one_way);
  EXPECT_FALSE(doc.value().interface.find_method("play")->one_way);
}

TEST(WsdlTest, ParamTypesPreserved) {
  InterfaceDesc iface{
      "Types",
      {MethodDesc{"m",
                  {{"b", ValueType::kBool},
                   {"i", ValueType::kInt},
                   {"d", ValueType::kDouble},
                   {"s", ValueType::kString},
                   {"y", ValueType::kBytes},
                   {"l", ValueType::kList},
                   {"m", ValueType::kMap}},
                  ValueType::kList,
                  false}}};
  auto doc = parse_wsdl(emit_wsdl(iface, "t", Uri{"http", "h", 1, "/"}));
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc.value().interface, iface);
}

TEST(WsdlTest, DocumentIsValidXml) {
  auto text = emit_wsdl(vcr_interface(), "vcr-1", Uri{"http", "h", 1, "/"});
  EXPECT_TRUE(xml::xmltest::drain(text).is_ok());
  EXPECT_NE(text.find("wsdl:definitions"), std::string::npos);
  EXPECT_NE(text.find("soap:address"), std::string::npos);
}

TEST(WsdlTest, RejectsNonWsdl) {
  EXPECT_FALSE(parse_wsdl("<x/>").is_ok());
  EXPECT_FALSE(parse_wsdl("junk").is_ok());
}

TEST(WsdlTest, RejectsMissingPortType) {
  EXPECT_FALSE(
      parse_wsdl("<definitions name=\"X\"></definitions>").is_ok());
}

TEST(WsdlTest, EmptyInterface) {
  InterfaceDesc iface{"Empty", {}};
  auto doc = parse_wsdl(emit_wsdl(iface, "e", Uri{"http", "h", 1, "/"}));
  ASSERT_TRUE(doc.is_ok());
  EXPECT_TRUE(doc.value().interface.methods.empty());
}

TEST(WsdlTest, EventsRoundTripThroughSecondPortType) {
  auto iface = vcr_interface();
  iface.events.push_back(MethodDesc{"transportChanged",
                                    {{"state", ValueType::kString}},
                                    ValueType::kNull,
                                    true});
  iface.events.push_back(MethodDesc{
      "counterTick", {{"frames", ValueType::kInt}}, ValueType::kNull, true});
  auto text = emit_wsdl(iface, "vcr-1", Uri{"http", "h", 1, "/"});
  EXPECT_NE(text.find("VcrControlEventsPortType"), std::string::npos);
  auto doc = parse_wsdl(text);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_EQ(doc.value().interface, iface);
  ASSERT_EQ(doc.value().interface.events.size(), 2u);
  const auto* e = doc.value().interface.find_event("transportChanged");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->one_way);
  EXPECT_EQ(e->return_type, ValueType::kNull);
  // Events stay out of the method list and vice versa.
  EXPECT_EQ(doc.value().interface.find_method("transportChanged"), nullptr);
  EXPECT_EQ(doc.value().interface.find_event("play"), nullptr);
}

TEST(WsdlTest, NoEventsPortTypeWhenInterfaceHasNoEvents) {
  auto text = emit_wsdl(vcr_interface(), "vcr-1", Uri{"http", "h", 1, "/"});
  EXPECT_EQ(text.find("EventsPortType"), std::string::npos);
  auto doc = parse_wsdl(text);
  ASSERT_TRUE(doc.is_ok());
  EXPECT_TRUE(doc.value().interface.events.empty());
}

// --- parse goldens ----------------------------------------------------
//
// Every interface the testbed and the perfbench workloads emit must
// parse back to itself, and every hand-written document below must give
// the listed result. The expectations were captured from the tree-based
// parser the pull-parser walk replaced; both accept and reject the same
// documents.

// The interfaces the testbed, its adapters and the perfbench workloads
// publish. The ones built inline where they are published are restated
// here.
std::vector<std::pair<std::string, InterfaceDesc>> emitted_interfaces() {
  InterfaceDesc mail{"MailService",
                     {MethodDesc{"sendMail",
                                 {{"to", ValueType::kString},
                                  {"subject", ValueType::kString},
                                  {"body", ValueType::kString}},
                                 ValueType::kBool,
                                 false}}};
  mail.events.push_back(MethodDesc{
      "messageArrived",
      {{"from", ValueType::kString}, {"subject", ValueType::kString}},
      ValueType::kNull,
      true});
  InterfaceDesc motion{"MotionSensor", {}};
  motion.events.push_back(MethodDesc{
      "motion", {{"address", ValueType::kString}}, ValueType::kNull, true});
  InterfaceDesc listener{
      "RemoteEventListener",
      {MethodDesc{"serviceEvent",
                  {{"type", ValueType::kString}, {"item", ValueType::kMap}},
                  ValueType::kNull,
                  true}}};
  InterfaceDesc sensor{
      "BenchSensor",
      {MethodDesc{"read", {{"channel", ValueType::kInt}}, ValueType::kInt,
                  false}}};
  sensor.events.push_back(MethodDesc{
      "stateChanged", {{"state", ValueType::kString}}, ValueType::kNull,
      true});
  InterfaceDesc churn{
      "BenchChurn2",
      {MethodDesc{"set", {{"value", ValueType::kInt}}, ValueType::kBool,
                  false}}};
  for (int v = 0; v <= 2; ++v) {
    churn.methods.push_back(MethodDesc{"probe" + std::to_string(v),
                                       {{"x", ValueType::kInt}},
                                       ValueType::kInt,
                                       false});
  }
  return {
      {"laserdisc", testbed::LaserdiscPlayer::describe_interface()},
      {"vcr", havi::VcrFcm::describe_interface()},
      {"camera", havi::DvCameraFcm::describe_interface()},
      {"display", havi::DisplayFcm::describe_interface()},
      {"tuner", havi::TunerFcm::describe_interface()},
      {"x10-dimmable", core::X10Adapter::switchable_interface(true)},
      {"x10-appliance", core::X10Adapter::switchable_interface(false)},
      {"mail", mail},
      {"motion", motion},
      {"listener", listener},
      {"bench-sensor", sensor},
      {"bench-churn", churn},
  };
}

TEST(WsdlGoldenTest, EmittedInterfacesParseBackToThemselves) {
  for (const auto& [service, iface] : emitted_interfaces()) {
    const Uri endpoint{"http", "node-7", 8080, "/vsg/" + service};
    auto doc = parse_wsdl(emit_wsdl(iface, service, endpoint));
    ASSERT_TRUE(doc.is_ok()) << service << ": " << doc.status().to_string();
    EXPECT_EQ(doc.value().interface, iface) << service;
    EXPECT_EQ(doc.value().service_name, service);
    EXPECT_EQ(doc.value().endpoint, endpoint) << service;
  }
}

// One line per interface, method and event; "rejected" for an error.
std::string describe(const Result<WsdlDocument>& r) {
  if (!r.is_ok()) return "rejected";
  const WsdlDocument& d = r.value();
  std::string out = d.interface.name + " svc=" + d.service_name +
                    " at=" + d.endpoint.to_string();
  auto sig = [&out](const char* kind, const MethodDesc& m) {
    out += std::string("\n") + kind + " " + m.name + "(";
    for (std::size_t i = 0; i < m.params.size(); ++i) {
      if (i > 0) out += ",";
      out += m.params[i].name + ":" + to_string(m.params[i].type);
    }
    out += ")";
    out += m.one_way ? std::string(" one-way")
                     : std::string("->") + to_string(m.return_type);
  };
  for (const auto& m : d.interface.methods) sig("m", m);
  for (const auto& e : d.interface.events) sig("e", e);
  return out;
}

struct GoldenCase {
  const char* name;
  const char* doc;
  const char* want;
};

const GoldenCase kHandWritten[] = {
    {"messages after the portTypes",
     R"(<definitions name="Late"><portType name="LatePortType"><operation name="go"><input message="tns:goIn"/><output message="tns:goOut"/></operation></portType><message name="goIn"><part name="speed" type="xsd:int"/><part name="why" type="xsd:string"/></message><message name="goOut"><part name="return" type="xsd:boolean"/></message><service name="late-1"><port name="p"><address location="http://h:1/late"/></port></service></definitions>)",
     "Late svc=late-1 at=http://h:1/late\n"
     "m go(speed:int,why:string)->bool"},
    {"foreign prefixes",
     R"(<w:definitions xmlns:w="http://schemas.xmlsoap.org/wsdl/" xmlns:s12="http://schemas.xmlsoap.org/wsdl/soap12/" name="Foreign"><w:message name="aIn"><w:part name="x" type="xs:string"/><w:part name="y" type="q:double"/></w:message><w:message name="aOut"><w:part name="r" type="long"/></w:message><w:portType name="ForeignPortType"><w:operation name="a"><w:input message="zz:aIn"/><w:output message="aOut"/></w:operation></w:portType><w:service name="f"><w:port name="p"><s12:address location="http://host:2/f"/></w:port></w:service></w:definitions>)",
     "Foreign svc=f at=http://host:2/f\n"
     "m a(x:string,y:double)->int"},
    {"comments, whitespace, DOCTYPE and CDATA",
     "<?xml version=\"1.0\"?>\n<!DOCTYPE definitions>\n<!-- lead -->\n"
     "<definitions name=\"Noisy\">\n  <!-- inner -->\n"
     "  <message name=\"mIn\">\n    <part name=\"v\" type=\"xsd:double\"/>"
     "  <![CDATA[ ignored <text> ]]>\n  </message>\n"
     "  <documentation><![CDATA[<b>not markup</b>]]></documentation>\n"
     "  <portType name=\"NoisyPortType\">\n"
     "    <operation name=\"m\"><input message=\"tns:mIn\"/>"
     "<output message=\"tns:mOut\"/></operation>\n  </portType>\n"
     "</definitions>\n<!-- trailing -->\n",
     "Noisy svc= at=:///\n"
     "m m(v:double)->null"},
    {"entity-encoded names",
     R"(<definitions name="a&amp;b"><message name="x&amp;yIn"><part name="p&lt;1" type="xsd:string"/></message><portType name="a&amp;bPortType"><operation name="x&amp;y"><input message="tns:x&amp;yIn"/></operation></portType><portType name="a&amp;bEventsPortType"><operation name="ev&#33;"><input message="tns:evIn"/></operation></portType><service name="s&amp;1"><port><address location="http://h:3/ab"/></port></service></definitions>)",
     "a&b svc=s&1 at=http://h:3/ab\n"
     "m x&y(p<1:string) one-way\n"
     "e ev!() one-way"},
    {"decoys nested one level below definitions are ignored",
     R"(<definitions name="Decoy"><types><message name="opIn"><part name="decoy" type="xsd:string"/></message><portType name="GhostPortType"><operation name="ghost"/></portType><service name="ghost"/></types><message name="opIn"><part name="real" type="xsd:int"/><wrap><part name="deep" type="xsd:int"/></wrap></message><portType name="DecoyPortType"><documentation><operation name="ghost2"/></documentation><operation name="op"><doc><input message="tns:nothing"/></doc><input message="tns:opIn"/></operation></portType></definitions>)",
     "Decoy svc= at=:///\n"
     "m op(real:int) one-way"},
    {"only the first service, port and address count",
     R"(<definitions name="Two"><message name="pingIn"/><portType name="TwoPortType"><operation name="ping"><input message="tns:pingIn"/><output message="tns:pingOut"/><output message="tns:pingIn"/></operation></portType><service name="first"><port name="a"><address location="http://first:1/a"/><address location="http://first:1/b"/></port><port name="b"><address location="http://first:1/c"/></port></service><service name="second"><port name="c"><address location="http://second:2/c"/></port></service></definitions>)",
     "Two svc=first at=http://first:1/a\n"
     "m ping()->null"},
    {"an operation without output is one-way",
     R"(<definitions name="OneWay"><message name="fireIn"><part name="n" type="xsd:int"/></message><portType name="OneWayPortType"><operation name="fire"><input message="tns:fireIn"/></operation><operation name="bare"/></portType></definitions>)",
     "OneWay svc= at=:///\n"
     "m fire(n:int) one-way\n"
     "m bare() one-way"},
    {"unknown part types and missing attributes",
     R"(<definitions name="Loose"><message><part name="orphan" type="xsd:int"/></message><message name="mIn"><part type="xsd:boolean"/><part name="u" type="xsd:unknown"/><part name="n"/></message><portType><operation name="m"><input message="tns:mIn"/><output/></operation><operation><input/></operation></portType><service><port><address/></port></service></definitions>)",
     "Loose svc= at=:///\n"
     "m m(:bool,u:null,n:null)->null\n"
     "m () one-way"},
    {"a bad entity in an unused attribute is rejected",
     R"(<definitions name="Bad"><message name="mIn"/><portType name="BadPortType"><operation name="m"><input message="tns:mIn"/></operation></portType><binding name="b" type="tns:&bogus;"/></definitions>)",
     "rejected"},
    {"a bad entity in an unused root attribute is rejected",
     R"(<definitions name="Bad" targetNamespace="urn:&#xZZ;"><portType name="BadPortType"/></definitions>)",
     "rejected"},
    {"a bad entity in unused text is rejected",
     R"(<definitions name="Bad"><portType name="BadPortType"/><documentation>a &nope; b</documentation></definitions>)",
     "rejected"},
    {"a bad entity in text directly inside definitions is rejected",
     R"(<definitions name="Bad"><portType name="BadPortType"/>&nope;</definitions>)",
     "rejected"},
    {"not a definitions root", R"(<description name="X"><portType/></description>)",
     "rejected"},
    {"no portType", R"(<definitions name="X"><types><portType/></types></definitions>)",
     "rejected"},
    {"no name", R"(<definitions><portType name="PortType"/></definitions>)",
     "rejected"},
    {"a bad address", R"(<definitions name="X"><portType/><service><port><address location="not a uri"/></port></service></definitions>)",
     "rejected"},
    {"trailing content", R"(<definitions name="X"><portType/></definitions><x/>)",
     "rejected"},
};

TEST(WsdlGoldenTest, HandWrittenDocuments) {
  for (const auto& c : kHandWritten) {
    EXPECT_EQ(describe(parse_wsdl(c.doc)), c.want) << c.name;
  }
}

// A message referenced by N operations: the parsed interface would
// copy its N parts into each of them (N * N params; at N = 2,000 a
// 166 KB document held 4,000,000 params).
TEST(WsdlTest, SharedMessageReferencesAreRejected) {
  constexpr int kN = 2000;
  std::string text = "<definitions name=\"Amp\"><message name=\"shared\">";
  for (int i = 0; i < kN; ++i) {
    text += "<part name=\"p" + std::to_string(i) + "\" type=\"xsd:int\"/>";
  }
  text += "</message><portType name=\"AmpPortType\">";
  for (int i = 0; i < kN; ++i) {
    text += "<operation name=\"op" + std::to_string(i) +
            "\"><input message=\"tns:shared\"/></operation>";
  }
  text += "</portType></definitions>";
  auto doc = parse_wsdl(text);
  ASSERT_FALSE(doc.is_ok());
  EXPECT_NE(doc.status().message().find("referenced twice"),
            std::string::npos);

  // Two references from one operation count as well.
  EXPECT_FALSE(parse_wsdl(R"(<definitions name="X"><message name="m"><part name="a" type="xsd:int"/></message><portType name="XPortType"><operation name="o"><input message="tns:m"/><output message="tns:m"/></operation></portType></definitions>)")
                   .is_ok());
  // A single reference, and references to undefined messages, are fine.
  EXPECT_TRUE(parse_wsdl(R"(<definitions name="X"><message name="m"><part name="a" type="xsd:int"/></message><portType name="XPortType"><operation name="o"><input message="tns:m"/><output message="tns:missing"/></operation><operation name="p"><input message="tns:missing"/></operation></portType></definitions>)")
                  .is_ok());
}

TEST(WsdlTest, DuplicateMessageDefinitionIsRejected) {
  auto doc = parse_wsdl(
      R"(<definitions name="X"><message name="mIn"><part name="a" type="xsd:int"/></message><message name="mIn"><part name="b" type="xsd:int"/></message><portType name="XPortType"><operation name="m"><input message="tns:mIn"/></operation></portType></definitions>)");
  ASSERT_FALSE(doc.is_ok());
  EXPECT_NE(doc.status().message().find("defined twice"), std::string::npos);
}

// A method and an event with the same name make emit_wsdl write two
// <message name="levelInput">. The tree-based parser accepted that
// document and gave both operations both parts; it is now rejected.
TEST(WsdlTest, MethodAndEventWithOneNameAreRejected) {
  InterfaceDesc iface{
      "Dimmer",
      {MethodDesc{"level", {{"v", ValueType::kInt}}, ValueType::kBool, false}}};
  iface.events.push_back(MethodDesc{
      "level", {{"now", ValueType::kDouble}}, ValueType::kNull, true});
  const std::string text = emit_wsdl(iface, "d", Uri{"http", "h", 1, "/"});
  ASSERT_NE(text.find("<wsdl:message name=\"levelInput\">"),
            text.rfind("<wsdl:message name=\"levelInput\">"));
  EXPECT_FALSE(parse_wsdl(text).is_ok());
}

TEST(WsdlTest, HostileNestingIsRejectedWithoutCrashing) {
  // A published WSDL nested a million elements deep (~7 MB): the parse
  // tree must never reach that depth, or destroying it would overflow
  // the stack.
  constexpr int kDepth = 1'000'000;
  std::string text = "<wsdl:definitions name=\"X\">";
  text.reserve(static_cast<std::size_t>(kDepth) * 7 + 64);
  for (int i = 0; i < kDepth; ++i) text += "<e>";
  for (int i = 0; i < kDepth; ++i) text += "</e>";
  text += "</wsdl:definitions>";
  EXPECT_FALSE(parse_wsdl(text).is_ok());
}

}  // namespace
}  // namespace hcm::soap
