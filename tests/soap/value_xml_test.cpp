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

// A fresh tree's lists reserve their child counts, read ahead by a
// copy of the parser. Only the outermost one reads ahead: were every
// level to read its own subtree ahead, sixty lists around a 4 MB string
// would scan the string sixty-one times. The decode must cost about
// two parses (the read-ahead and the decode itself), not sixty.
TEST(SoapValueTest, DeepFreshChainIsReadAheadOnce) {
  Value v(std::string(4 << 20, 'x'));
  for (int i = 0; i < 60; ++i) {
    ValueList wrap;
    wrap.push_back(std::move(v));
    v = Value(std::move(wrap));
  }
  std::string doc;
  xml::Writer w(doc);
  value_write("p", v, w);
  // Fastest of three runs each, so a stray stall does not decide.
  using Clock = std::chrono::steady_clock;
  Clock::duration parse_time = Clock::duration::max();
  Clock::duration decode_time = Clock::duration::max();
  for (int run = 0; run < 3; ++run) {
    auto start = Clock::now();
    ASSERT_TRUE(xml::xmltest::drain(doc).is_ok());
    parse_time = std::min(parse_time, Clock::now() - start);
    start = Clock::now();
    auto r = decode(doc);
    decode_time = std::min(decode_time, Clock::now() - start);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    ASSERT_TRUE(r.value() == v);  // not printed: it holds 4 MB
  }
  EXPECT_LT(decode_time, 8 * parse_time)
      << "decode " << std::chrono::duration<double>(decode_time).count()
      << " s, parse " << std::chrono::duration<double>(parse_time).count()
      << " s";
}

// --- Decoding through a recycled envelope ---------------------------------

// parse_envelope_into decodes every param into the tree the envelope's
// previous parse left there, reusing its storage. Whatever that tree
// was, and on errors as well, the result must be the fresh decode.
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
  // Widths shrink and grow, so later parses decode into trees (and
  // spare list elements) an earlier, differently shaped one left.
  for (int width : {3, 17, 1, 9}) {
    const Value v = list_of_maps_of_lists(width);
    auto r = parse(build_call("urn:x", "m", {{"p", v}}));
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value(), v) << "width " << width;
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
  // The next parse on the same envelope decodes exactly.
  r = parse(build_call("urn:x", "m", {{"p", good}}));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), good);
}

// A list that comes back shorter lends its extra elements to the
// envelope's spares, and a longer one takes them back before building
// new ones: four inner lists of 17 ints, then of 1, then of 9.
TEST_F(RecycledEnvelopeDecodeTest, ShortenedListsLendElementsToLongerOnes) {
  auto r = parse(build_call("urn:x", "m", {{"p", list_of_maps_of_lists(17)}}));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(env.spare.empty());
  r = parse(build_call("urn:x", "m", {{"p", list_of_maps_of_lists(1)}}));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), list_of_maps_of_lists(1));
  EXPECT_EQ(env.spare.size(), 4u * 16);
  r = parse(build_call("urn:x", "m", {{"p", list_of_maps_of_lists(9)}}));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), list_of_maps_of_lists(9));
  EXPECT_EQ(env.spare.size(), 4u * 8);
}

// One recycled envelope fed params that change shape from call to call
// decodes each exactly as a fresh parse_envelope does: a map, a list
// and a string in turn in one param slot, a longer map before a
// shorter one, a rejected envelope between two valid ones, and a
// descending-key map with a repeated key, which is sorted in place.
TEST_F(RecycledEnvelopeDecodeTest, ReshapedParamsMatchAFreshParse) {
  const Value long_map(ValueMap{{"a", Value(1)},
                                {"b", Value(std::string("two"))},
                                {"c", Value(ValueList{Value(3), Value(4)})},
                                {"d", Value(true)}});
  const Value short_map(ValueMap{{"b", Value(std::string("x"))}});
  std::string rejected = build_call("urn:x", "m", {{"p", long_map}});
  const auto digit = rejected.find(">3<");
  ASSERT_NE(digit, std::string::npos);
  rejected.replace(digit, 3, ">3x<");
  std::string descending = "<p xsi:type=\"xsd:struct\">";
  char member[64];
  for (int i = 40; i > 0; --i) {
    std::snprintf(member, sizeof member,
                  "<k%02d xsi:type=\"xsd:long\">%d</k%02d>", i, i, i);
    descending += member;
  }
  descending += "<k07 xsi:type=\"xsd:long\">-7</k07></p>";

  const std::vector<std::string> bodies = {
      build_call("urn:x", "m", {{"p", long_map}}),
      build_call("urn:x", "m", {{"p", list_of_maps_of_lists(3)}}),
      build_call("urn:x", "m", {{"p", Value(std::string("a string"))}}),
      build_call("urn:x", "m", {{"p", long_map}, {"q", short_map}}),
      build_call("urn:x", "m", {{"p", short_map}}),
      rejected,
      build_call("urn:x", "m", {{"p", list_of_maps_of_lists(5)}}),
      call_with(descending),
      build_call("urn:x", "m", {{"p", long_map}}),
  };
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    auto fresh = parse_envelope(bodies[i]);
    auto s = parse_envelope_into(bodies[i], env);
    ASSERT_EQ(s.is_ok(), fresh.is_ok()) << "body " << i;
    if (!s.is_ok()) {
      EXPECT_EQ(s.code(), fresh.status().code()) << "body " << i;
      continue;
    }
    EXPECT_EQ(env.method, fresh.value().method) << "body " << i;
    EXPECT_EQ(env.params, fresh.value().params) << "body " << i;
  }
  // The descending map kept the first k07 and sorted its keys.
  auto r = parse(call_with(descending));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().as_map().size(), 40u);
  EXPECT_EQ(r.value().at("k07"), Value(7));
  EXPECT_EQ(r.value().as_map().begin()->first, "k01");
}

// A pooled envelope keeps its params' trees for the next parse, but no
// string longer than kMaxRetainedString: a mail body is freed.
TEST_F(RecycledEnvelopeDecodeTest, TrimForReuseFreesOnlyLargeStrings) {
  const std::string body(16 * 1024, 'b');
  const Value message(ValueMap{{"body", Value(body)},
                               {"subject", Value(std::string("s"))}});
  ASSERT_TRUE(parse(build_call("urn:x", "m", {{"p", message}})).is_ok());
  trim_for_reuse(env);
  const Value& kept = env.params.front().second;
  EXPECT_TRUE(kept.at("body").is_null());
  EXPECT_EQ(kept.at("subject"), Value(std::string("s")));
  auto r = parse(build_call("urn:x", "m", {{"p", message}}));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), message);
}

}  // namespace
}  // namespace hcm::soap
