#include "soap/envelope.hpp"

#include <gtest/gtest.h>

#include "common/value_codec.hpp"

namespace hcm::soap {
namespace {

// An int wrapped in `levels` single-item lists: the outermost list is
// the top-level value (depth 0) and the int sits at depth `levels`.
Value nested(int levels) {
  Value v(1);
  for (int i = 0; i < levels; ++i) v = Value(ValueList{v});
  return v;
}

TEST(EnvelopeTest, CallRoundTrip) {
  NamedValues params{{"channel", Value(5)}, {"name", Value("NHK")}};
  auto wire = build_call("urn:hcm:Tuner", "setChannel", params);
  auto env = parse_envelope(wire);
  ASSERT_TRUE(env.is_ok()) << env.status().to_string();
  EXPECT_FALSE(env.value().is_fault);
  EXPECT_EQ(env.value().method, "setChannel");
  EXPECT_EQ(env.value().method_ns, "urn:hcm:Tuner");
  ASSERT_EQ(env.value().params.size(), 2u);
  EXPECT_EQ(env.value().params[0].first, "channel");
  EXPECT_EQ(env.value().params[0].second, Value(5));
  EXPECT_EQ(env.value().params[1].second, Value("NHK"));
}

TEST(EnvelopeTest, ResponseRoundTrip) {
  auto wire = build_response("urn:x", "play", Value(true));
  auto env = parse_envelope(wire);
  ASSERT_TRUE(env.is_ok());
  EXPECT_EQ(env.value().method, "playResponse");
  ASSERT_EQ(env.value().params.size(), 1u);
  EXPECT_EQ(env.value().params[0].first, "return");
  EXPECT_EQ(env.value().params[0].second, Value(true));
}

TEST(EnvelopeTest, FaultRoundTrip) {
  Fault f{"SOAP-ENV:Server", "device unreachable", "detail text"};
  auto wire = build_fault(f);
  auto env = parse_envelope(wire);
  ASSERT_TRUE(env.is_ok());
  ASSERT_TRUE(env.value().is_fault);
  EXPECT_EQ(env.value().fault.code, "SOAP-ENV:Server");
  EXPECT_EQ(env.value().fault.string, "device unreachable");
  EXPECT_EQ(env.value().fault.detail, "detail text");
}

TEST(EnvelopeTest, StatusTunnelsThroughFault) {
  auto original = not_found("no such service: vcr-1");
  auto fault = Fault::from_status(original);
  auto wire = build_fault(fault);
  auto env = parse_envelope(wire);
  ASSERT_TRUE(env.is_ok());
  auto status = env.value().fault.to_status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "no such service: vcr-1");
}

TEST(EnvelopeTest, ClientFaultMapsToInvalidArgument) {
  Fault f{"SOAP-ENV:Client", "bad params", ""};
  EXPECT_EQ(f.to_status().code(), StatusCode::kInvalidArgument);
}

TEST(EnvelopeTest, GenericServerFaultMapsToInternal) {
  Fault f{"SOAP-ENV:Server", "boom", "unstructured detail"};
  EXPECT_EQ(f.to_status().code(), StatusCode::kInternal);
}

TEST(EnvelopeTest, EmptyParams) {
  auto wire = build_call("urn:x", "ping", {});
  auto env = parse_envelope(wire);
  ASSERT_TRUE(env.is_ok());
  EXPECT_EQ(env.value().method, "ping");
  EXPECT_TRUE(env.value().params.empty());
}

TEST(EnvelopeTest, ComplexParamsSurvive) {
  Value profile(ValueMap{
      {"user", Value("alice")},
      {"preferences", Value(ValueList{Value("news"), Value("drama")})},
  });
  auto wire = build_call("urn:x", "record", {{"profile", profile}});
  auto env = parse_envelope(wire);
  ASSERT_TRUE(env.is_ok());
  EXPECT_EQ(env.value().params[0].second, profile);
}

TEST(EnvelopeTest, RejectsNonEnvelope) {
  EXPECT_FALSE(parse_envelope("<notsoap/>").is_ok());
  EXPECT_FALSE(parse_envelope("garbage").is_ok());
  EXPECT_FALSE(parse_envelope(
                   "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"x\"></SOAP-ENV:Envelope>")
                   .is_ok());  // no Body
}

TEST(EnvelopeTest, RejectsEmptyBody) {
  auto wire =
      "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"x\">"
      "<SOAP-ENV:Body></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  EXPECT_FALSE(parse_envelope(wire).is_ok());
}

TEST(EnvelopeTest, BadEntityInASkippedElementIsRejected) {
  // The decoder skips unknown header entries and Body children after
  // the first; the tokenizer still rejects what it passes over.
  const std::string call = build_call("urn:x", "m", {{"a", Value(1)}});
  const std::string head = "<SOAP-ENV:Body>";
  for (const char* junk :
       {"<x:Extra a=\"&bogus;\"/>", "<x:Extra>&bogus;</x:Extra>"}) {
    std::string header = call;
    header.insert(header.find(head),
                  std::string("<SOAP-ENV:Header>") + junk +
                      "</SOAP-ENV:Header>");
    EXPECT_FALSE(parse_envelope(header).is_ok()) << header;
    std::string trailing = call;
    trailing.insert(trailing.find("</SOAP-ENV:Body>"), junk);
    EXPECT_FALSE(parse_envelope(trailing).is_ok()) << trailing;
  }
  EXPECT_TRUE(parse_envelope(call).is_ok());
}

TEST(EnvelopeTest, WireSizeIsSubstantial) {
  // The SOAP/XML overhead the paper accepts for simplicity: a one-int
  // call costs several hundred bytes on the wire. The binary-codec
  // ablation quantifies this.
  auto wire = build_call("urn:x", "m", {{"a", Value(1)}});
  EXPECT_GT(wire.size(), 300u);
}

TEST(EnvelopeTest, NestingAtTheDepthLimitIsAccepted) {
  const Value deep = nested(kMaxValueDepth);
  auto env = parse_envelope(build_call("urn:x", "m", {{"p", deep}}));
  ASSERT_TRUE(env.is_ok()) << env.status().to_string();
  EXPECT_EQ(env.value().params[0].second, deep);
  // The binary codec shares the bound.
  EXPECT_TRUE(decode_value(encode_value(deep)).is_ok());
}

TEST(EnvelopeTest, NestingPastTheDepthLimitIsRejected) {
  const Value deep = nested(kMaxValueDepth + 1);
  auto env = parse_envelope(build_call("urn:x", "m", {{"p", deep}}));
  ASSERT_FALSE(env.is_ok());
  EXPECT_EQ(env.status().code(), StatusCode::kProtocolError);
  EXPECT_FALSE(decode_value(encode_value(deep)).is_ok());
}

TEST(EnvelopeTest, HostileNestingIsRejectedWithoutCrashing) {
  // ~700 KB of untyped nesting: one decoder frame per level used to
  // overflow the stack.
  constexpr int kLevels = 100'000;
  std::string wire =
      "<SOAP-ENV:Envelope "
      "xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<SOAP-ENV:Body><m:m xmlns:m=\"urn:x\"><p>";
  for (int i = 0; i < kLevels; ++i) wire += "<a>";
  for (int i = 0; i < kLevels; ++i) wire += "</a>";
  wire += "</p></m:m></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  auto env = parse_envelope(wire);
  ASSERT_FALSE(env.is_ok());
  EXPECT_EQ(env.status().code(), StatusCode::kProtocolError);
}

TEST(EnvelopeTest, DuplicatedXsiTypeIsRejected) {
  // XML 1.0 forbids repeating an attribute; a peer must not be able to
  // pick which of two types a reader honours.
  const std::string wire =
      "<SOAP-ENV:Envelope "
      "xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<SOAP-ENV:Body><m:m xmlns:m=\"urn:x\">"
      "<p xsi:type=\"xsd:long\" xsi:type=\"xsd:string\">1</p>"
      "</m:m></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  auto env = parse_envelope(wire);
  ASSERT_FALSE(env.is_ok());
  EXPECT_EQ(env.status().code(), StatusCode::kProtocolError);
}

}  // namespace
}  // namespace hcm::soap
