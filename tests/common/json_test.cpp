// JSON codec tests: writer shape (sorted keys, escaping, number
// formats), strict-parser acceptance/rejection, and the write->parse
// round-trip the telemetry artifacts (series dumps, hcm_top input)
// depend on.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>

namespace hcm {
namespace {

TEST(JsonWriteTest, ScalarsRender) {
  EXPECT_EQ(json_write(Value()), "null");
  EXPECT_EQ(json_write(Value(true)), "true");
  EXPECT_EQ(json_write(Value(false)), "false");
  EXPECT_EQ(json_write(Value(std::int64_t{-42})), "-42");
  EXPECT_EQ(json_write(Value(std::string("hi"))), "\"hi\"");
  EXPECT_EQ(json_write(Value(1.5)), "1.5");
}

TEST(JsonWriteTest, MapsRenderSortedAndStable) {
  // Value's map is ordered, so equal Values produce byte-identical
  // JSON — the property the series-dump hash checks rely on.
  Value v(ValueMap{{"b", Value(std::int64_t{2})},
                   {"a", Value(std::int64_t{1})}});
  EXPECT_EQ(json_write(v), "{\"a\":1,\"b\":2}");
}

TEST(JsonWriteTest, StringsEscapeControlAndQuotes) {
  const std::string rendered =
      json_write(Value(std::string("a\"b\\c\n\t\x01")));
  EXPECT_EQ(rendered, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonParseTest, ParsesNestedStructure) {
  auto r = json_parse("  {\"xs\": [1, 2.5, \"s\", null, true]} ");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Value& v = r.value();
  ASSERT_TRUE(v.is_map());
  const Value& xs = v.at("xs");
  ASSERT_TRUE(xs.is_list());
  ASSERT_EQ(xs.as_list().size(), 5u);
  EXPECT_EQ(xs.as_list()[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(xs.as_list()[1].as_double(), 2.5);
  EXPECT_EQ(xs.as_list()[2].as_string(), "s");
  EXPECT_TRUE(xs.as_list()[3].is_null());
  EXPECT_TRUE(xs.as_list()[4].as_bool());
}

TEST(JsonParseTest, IntegralNumbersBecomeInt) {
  auto r = json_parse("[9007199254740993, -3, 3.0, 1e2]");
  ASSERT_TRUE(r.is_ok());
  const ValueList& xs = r.value().as_list();
  EXPECT_TRUE(xs[0].is_int());  // beyond double precision, stays exact
  EXPECT_EQ(xs[0].as_int(), 9007199254740993LL);
  EXPECT_TRUE(xs[1].is_int());
  EXPECT_TRUE(xs[2].is_double());  // '.' forces double
  EXPECT_TRUE(xs[3].is_double());  // exponent forces double
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(json_parse("").is_ok());
  EXPECT_FALSE(json_parse("{").is_ok());
  EXPECT_FALSE(json_parse("[1,]").is_ok());
  EXPECT_FALSE(json_parse("{\"a\" 1}").is_ok());
  EXPECT_FALSE(json_parse("nul").is_ok());
  EXPECT_FALSE(json_parse("1 2").is_ok());  // trailing content
  EXPECT_FALSE(json_parse("\"unterminated").is_ok());
}

TEST(JsonParseTest, DescendingKeyMapDecodesInLogLinearTime) {
  // 80,000 distinct keys, highest first (see the value codec's test of
  // the same name).
  constexpr int kKeys = 80000;
  std::string doc = "{";
  char member[32];
  for (int i = kKeys - 1; i >= 0; --i) {
    std::snprintf(member, sizeof member, "%s\"k%05d\":%d",
                  i == kKeys - 1 ? "" : ",", i, i);
    doc += member;
  }
  doc += '}';
  const auto start = std::chrono::steady_clock::now();
  auto r = json_parse(doc);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  const ValueMap& m = r.value().as_map();
  ASSERT_EQ(m.size(), static_cast<std::size_t>(kKeys));
  EXPECT_TRUE(std::adjacent_find(m.begin(), m.end(), [](const auto& a,
                                                        const auto& b) {
                return !(a.first < b.first);
              }) == m.end());
  EXPECT_EQ(r.value().at("k04711"), Value(std::int64_t{4711}));
}

TEST(JsonParseTest, DuplicateKeysKeepTheLastValue) {
  auto r = json_parse("{\"a\": 1, \"a\": 2}");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), Value(ValueMap{{"a", Value(std::int64_t{2})}}));
}

TEST(JsonParseTest, UnorderedMapWithDuplicatesParsesSorted) {
  auto r = json_parse("{\"c\": 1, \"a\": 2, \"c\": 3, \"b\": 4, \"a\": 5}");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), Value(ValueMap{{"a", Value(std::int64_t{5})},
                                      {"b", Value(std::int64_t{4})},
                                      {"c", Value(std::int64_t{3})}}));
  EXPECT_EQ(json_write(r.value()), "{\"a\":5,\"b\":4,\"c\":3}");
}

TEST(JsonRoundTripTest, WriteParseWriteIsIdentity) {
  Value v(ValueMap{
      {"series",
       Value(ValueMap{
           {"net.datagrams", Value(ValueList{Value(std::int64_t{1}),
                                             Value(std::int64_t{2})})},
           {"ratio", Value(0.125)},
       })},
      {"name", Value(std::string("dump \"v1\"\n"))},
      {"ok", Value(true)},
      {"nothing", Value()},
  });
  const std::string once = json_write(v);
  auto back = json_parse(once);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(json_write(back.value()), once);
}

}  // namespace
}  // namespace hcm
