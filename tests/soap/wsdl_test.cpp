#include "soap/wsdl.hpp"

#include <gtest/gtest.h>

#include "xml/xml.hpp"

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
  EXPECT_TRUE(xml::parse(text).is_ok());
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
