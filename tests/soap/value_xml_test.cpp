#include "soap/value_xml.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

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

}  // namespace
}  // namespace hcm::soap
