#include "soap/value_xml.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/value_codec.hpp"
#include "soap/envelope.hpp"
#include "tests/xml/xml_drain.hpp"

namespace hcm::soap {
namespace {

// Decodes a document whose root element is an encoded value.
Result<Value> decode(std::string_view doc) {
  xml::PullParser p(doc);
  auto ev = p.next();
  if (!ev.is_ok()) return ev.status();
  return value_from_pull(p);
}

Result<Value> round_trip(const Value& v) {
  std::string serialized;
  xml::Writer w(serialized);
  w.start("params");
  value_write("p", v, w);
  w.end();
  xml::PullParser p(serialized);
  for (int i = 0; i < 2; ++i) {  // <params>, then <p>
    auto ev = p.next();
    if (!ev.is_ok()) return ev.status();
    if (ev.value() != xml::PullParser::Event::kStart) {
      return internal_error("lost element");
    }
  }
  return value_from_pull(p);
}

class SoapValueRoundTrip : public ::testing::TestWithParam<Value> {};

TEST_P(SoapValueRoundTrip, SurvivesXmlEncoding) {
  auto r = round_trip(GetParam());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllValueShapes, SoapValueRoundTrip,
    ::testing::Values(
        Value(), Value(true), Value(false), Value(0), Value(-123456789),
        Value(INT64_MAX), Value(3.5), Value(-0.25), Value(1e100),
        Value(""), Value("plain"), Value("<xml> & \"entities\""),
        Value(Bytes{}), Value(Bytes{0, 1, 255}),
        Value(ValueList{Value(1), Value("two"), Value(true)}),
        Value(ValueList{}),
        Value(ValueMap{{"a", Value(1)}, {"b", Value("x")}}),
        Value(ValueMap{
            {"outer", Value(ValueMap{{"inner", Value(ValueList{Value(9)})}})}}),
        // Keys that are not valid XML names (metric scopes like
        // "http.server#2") ride in an <entry key="..."> form.
        Value(ValueMap{{"http.server#2.requests", Value(7)},
                       {"9starts-with-digit", Value("v")},
                       {"spaced key", Value(true)}})));

TEST(SoapValueTest, XsiTypeStrings) {
  EXPECT_STREQ(xsi_type_for(ValueType::kInt), "xsd:long");
  EXPECT_STREQ(xsi_type_for(ValueType::kString), "xsd:string");
  EXPECT_STREQ(xsi_type_for(ValueType::kList), "SOAP-ENC:Array");
  EXPECT_EQ(value_type_for_xsi("xsd:int"), ValueType::kInt);
  EXPECT_EQ(value_type_for_xsi("xsd:boolean"), ValueType::kBool);
  EXPECT_EQ(value_type_for_xsi("unknown:thing"), ValueType::kNull);
}

TEST(SoapValueTest, AcceptsForeignIntTypes) {
  // A peer using xsd:int (not our canonical xsd:long) must decode.
  auto v = decode("<p xsi:type=\"xsd:int\">42</p>");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), Value(42));
}

TEST(SoapValueTest, UntypedElementWithChildrenBecomesMap) {
  auto v = decode("<p><x xsi:type=\"xsd:long\">1</x></p>");
  ASSERT_TRUE(v.is_ok());
  EXPECT_TRUE(v.value().is_map());
  EXPECT_EQ(v.value().at("x"), Value(1));
}

TEST(SoapValueTest, UntypedTextBecomesString) {
  auto v = decode("<p>words</p>");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), Value("words"));
}

TEST(SoapValueTest, NilDecodesToNull) {
  auto v = decode("<p xsi:nil=\"true\" xsi:type=\"xsd:string\"/>");
  ASSERT_TRUE(v.is_ok());
  EXPECT_TRUE(v.value().is_null());
}

TEST(SoapValueTest, MalformedScalarsRejected) {
  for (const char* bad :
       {"<p xsi:type=\"xsd:long\">4x</p>", "<p xsi:type=\"xsd:long\"></p>",
        "<p xsi:type=\"xsd:boolean\">maybe</p>",
        "<p xsi:type=\"xsd:double\">1.2.3</p>",
        "<p xsi:type=\"xsd:base64Binary\">!!</p>"}) {
    ASSERT_TRUE(xml::xmltest::drain(bad).is_ok()) << bad;
    EXPECT_FALSE(decode(bad).is_ok()) << bad;
  }
}

TEST(SoapValueTest, DescendingKeyMapDecodesInLogLinearTime) {
  // 80,000 distinct keys, highest first (see the value codec's test of
  // the same name).
  constexpr int kKeys = 80000;
  std::string doc = "<p xsi:type=\"xsd:struct\">";
  char member[64];
  for (int i = kKeys - 1; i >= 0; --i) {
    // Untyped members decode as strings; short ones keep the parse
    // itself well inside the budget under the sanitizers.
    std::snprintf(member, sizeof member, "<k%05d>%d</k%05d>", i, i, i);
    doc += member;
  }
  doc += "</p>";
  const auto start = std::chrono::steady_clock::now();
  auto r = decode(doc);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  const ValueMap& m = r.value().as_map();
  ASSERT_EQ(m.size(), static_cast<std::size_t>(kKeys));
  EXPECT_TRUE(std::adjacent_find(m.begin(), m.end(), [](const auto& a,
                                                        const auto& b) {
                return !(a.first < b.first);
              }) == m.end());
  EXPECT_EQ(r.value().at("k04711"), Value("4711"));
}

TEST(SoapValueTest, DuplicateKeysKeepTheFirstValue) {
  auto r = decode("<p><a xsi:type=\"xsd:long\">1</a>"
                  "<a xsi:type=\"xsd:long\">2</a></p>");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), Value(ValueMap{{"a", Value(1)}}));
}

TEST(SoapValueTest, UnorderedMapWithDuplicatesDecodesSorted) {
  auto r = decode(
      "<p><c xsi:type=\"xsd:long\">1</c><a xsi:type=\"xsd:long\">2</a>"
      "<c xsi:type=\"xsd:long\">3</c><b xsi:type=\"xsd:long\">4</b>"
      "<a xsi:type=\"xsd:long\">5</a></p>");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), Value(ValueMap{{"a", Value(2)},
                                      {"b", Value(4)},
                                      {"c", Value(1)}}));
}

// --- Decoding through a recycled envelope ---------------------------------

// parse_envelope_into decodes every param through the envelope's decode
// stack, which keeps its capacity from parse to parse. Each list or map
// level must hand the stack back as it found it, on errors as well.
class RecycledEnvelopeDecodeTest : public ::testing::Test {
 protected:
  // A call envelope whose one param is `param_xml`.
  static std::string call_with(const std::string& param_xml) {
    return "<SOAP-ENV:Envelope "
           "xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">"
           "<SOAP-ENV:Body><m:m xmlns:m=\"urn:x\">" +
           param_xml + "</m:m></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  }

  // The first param of `body` parsed into the recycled envelope.
  Result<Value> parse(std::string_view body) {
    if (auto s = parse_envelope_into(body, env); !s.is_ok()) return s;
    if (env.params.size() != 1) return internal_error("expected one param");
    return env.params.front().second;
  }

  Envelope env;
};

// Four maps, each holding a list of `width` ints and a string.
Value list_of_maps_of_lists(int width) {
  ValueList maps;
  for (int m = 0; m < 4; ++m) {
    ValueList ints;
    for (int i = 0; i < width; ++i) ints.emplace_back(m * 100 + i);
    ValueMap entry;
    entry.emplace("name", Value("map-" + std::to_string(m)));
    entry.emplace("values", Value(std::move(ints)));
    maps.emplace_back(std::move(entry));
  }
  return Value(std::move(maps));
}

TEST_F(RecycledEnvelopeDecodeTest, ListOfMapsOfListsRoundTrips) {
  // Widths shrink and grow, so later parses run on a stack sized by an
  // earlier, differently shaped one.
  for (int width : {3, 17, 1, 9}) {
    const Value v = list_of_maps_of_lists(width);
    auto r = parse(build_call("urn:x", "m", {{"p", v}}));
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value(), v) << "width " << width;
    EXPECT_TRUE(env.decode_stack.empty());
  }
}

TEST_F(RecycledEnvelopeDecodeTest, RepeatedMapKeyKeepsTheFirstEntry) {
  auto r = parse(call_with(
      "<p xsi:type=\"SOAP-ENC:Array\">"
      "<item xsi:type=\"xsd:struct\"><a xsi:type=\"xsd:long\">1</a>"
      "<b xsi:type=\"xsd:long\">2</b><a xsi:type=\"xsd:long\">3</a></item>"
      "</p>"));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), Value(ValueList{Value(ValueMap{{"a", Value(1)},
                                                      {"b", Value(2)}})}));
  EXPECT_TRUE(env.decode_stack.empty());
}

// An int nested `depth` lists below the param.
Value nested_lists(int depth) {
  Value v(1);
  for (int i = 0; i < depth; ++i) {
    ValueList wrap;
    wrap.push_back(std::move(v));
    v = Value(std::move(wrap));
  }
  return v;
}

TEST_F(RecycledEnvelopeDecodeTest, DepthLimitStillRejects) {
  const Value too_deep = nested_lists(kMaxValueDepth + 1);
  auto r = parse(build_call("urn:x", "m", {{"p", too_deep}}));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
  EXPECT_TRUE(env.decode_stack.empty());
  const Value at_limit = nested_lists(kMaxValueDepth);
  r = parse(build_call("urn:x", "m", {{"p", at_limit}}));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), at_limit);
}

TEST_F(RecycledEnvelopeDecodeTest, FailedDecodeLeavesNothingBehind) {
  const Value good = list_of_maps_of_lists(5);
  std::string bad = build_call("urn:x", "m", {{"p", good}});
  // Corrupt one xsd:long in the third map of the list.
  const auto third = bad.find(">201<");
  ASSERT_NE(third, std::string::npos);
  bad.replace(third, 5, ">2x1<");
  auto r = parse(bad);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
  EXPECT_TRUE(env.decode_stack.empty());
  // The next parse on the same envelope decodes exactly.
  r = parse(build_call("urn:x", "m", {{"p", good}}));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), good);
  EXPECT_TRUE(env.decode_stack.empty());
}

}  // namespace
}  // namespace hcm::soap
