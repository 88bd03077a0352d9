#include "common/value.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace hcm {
namespace {

// Every Value alternative but the string is at most 24 bytes; the map
// is one vector, so the variant is a string plus its index.
static_assert(sizeof(Value) <= 40);

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_TRUE(Value(7).is_int());
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_EQ(Value("s").as_string(), "s");
  EXPECT_TRUE(Value(Bytes{1}).is_bytes());
  EXPECT_TRUE(Value(ValueList{Value(1)}).is_list());
  EXPECT_TRUE(Value(ValueMap{{"k", Value(1)}}).is_map());
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_FALSE(Value(1) == Value(2));
  EXPECT_FALSE(Value(1) == Value(1.0));  // int != double
  EXPECT_EQ(Value(), Value(nullptr));
  ValueMap m{{"a", Value(1)}, {"b", Value("x")}};
  EXPECT_EQ(Value(m), Value(m));
}

TEST(ValueTest, ToNumberCoercion) {
  EXPECT_DOUBLE_EQ(Value(3).to_number().value(), 3.0);
  EXPECT_DOUBLE_EQ(Value(3.5).to_number().value(), 3.5);
  EXPECT_FALSE(Value("x").to_number().is_ok());
}

TEST(ValueTest, ToIntCoercion) {
  EXPECT_EQ(Value(3).to_int().value(), 3);
  EXPECT_EQ(Value(4.0).to_int().value(), 4);
  EXPECT_FALSE(Value(4.5).to_int().is_ok());
  EXPECT_FALSE(Value(true).to_int().is_ok());
}

TEST(ValueTest, MapAt) {
  ValueMap m{{"key", Value(9)}};
  Value v(m);
  EXPECT_EQ(v.at("key").as_int(), 9);
  EXPECT_TRUE(v.at("missing").is_null());
  EXPECT_TRUE(Value(1).at("anything").is_null());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value().to_string(), "null");
  EXPECT_EQ(Value(true).to_string(), "true");
  EXPECT_EQ(Value(42).to_string(), "42");
  EXPECT_EQ(Value("hi").to_string(), "\"hi\"");
  EXPECT_EQ(Value(Bytes{1, 2}).to_string(), "bytes[2]");
  EXPECT_EQ(Value(ValueList{Value(1), Value(2)}).to_string(), "[1, 2]");
  EXPECT_EQ(Value(ValueMap{{"a", Value(1)}}).to_string(), "{a: 1}");
}

TEST(ValueTest, NestedStructures) {
  Value nested(ValueMap{
      {"list", Value(ValueList{Value(1), Value("two"), Value(3.0)})},
      {"map", Value(ValueMap{{"inner", Value(true)}})},
  });
  EXPECT_EQ(nested.at("list").as_list().size(), 3u);
  EXPECT_TRUE(nested.at("map").at("inner").as_bool());
}

TEST(ValueTest, ValueTypeNames) {
  EXPECT_STREQ(to_string(ValueType::kNull), "null");
  EXPECT_STREQ(to_string(ValueType::kMap), "map");
  EXPECT_STREQ(to_string(ValueType::kBytes), "bytes");
}

TEST(ValueMapTest, IterationOrderMatchesStdMap) {
  // Shared prefixes, the empty key, and bytes >= 0x80, which compare as
  // unsigned char in std::string and so sort after ASCII.
  const std::vector<std::string> keys = {
      "ab",   "a",   "",     "abc", "b",    "\x80", "a\xff", "\xff",
      "aa",   "A",   "a\x01", "Z",   "\x7f", "ab\x80", "abd",  "a b"};
  std::map<std::string, int> reference;
  ValueMap m;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    reference.emplace(keys[i], static_cast<int>(i));
    m.emplace(keys[i], static_cast<int>(i));
  }
  ASSERT_EQ(m.size(), reference.size());
  auto want = reference.begin();
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k, want->first);
    EXPECT_EQ(v, Value(want->second));
    ++want;
  }
}

TEST(ValueMapTest, InitializerListSortsAndKeepsTheFirstDuplicate) {
  const ValueMap m{{"b", Value(1)}, {"a", Value(2)}, {"b", Value(3)}};
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.begin()->first, "a");
  EXPECT_EQ(m.at("b"), Value(1));
}

TEST(ValueMapTest, FindMissesAndHits) {
  const ValueMap m{{"alpha", Value(1)}, {"gamma", Value(3)}};
  EXPECT_EQ(m.find("beta"), m.end());     // between two keys
  EXPECT_EQ(m.find(""), m.end());         // before the first
  EXPECT_EQ(m.find("zeta"), m.end());     // past the last
  EXPECT_EQ(m.find("alph"), m.end());     // a prefix of a key
  EXPECT_EQ(m.find("alphabet"), m.end());  // a key is its prefix
  ASSERT_NE(m.find("gamma"), m.end());
  EXPECT_EQ(m.find("gamma")->second, Value(3));
  EXPECT_TRUE(m.contains("alpha"));
  EXPECT_EQ(m.count("alpha"), 1u);
  EXPECT_EQ(m.count("beta"), 0u);
  const ValueMap empty;
  EXPECT_EQ(empty.find("x"), empty.end());
}

TEST(ValueMapTest, Erase) {
  ValueMap m{{"a", Value(1)}, {"b", Value(2)}, {"c", Value(3)}};
  EXPECT_EQ(m.erase("b"), 1u);
  EXPECT_EQ(m.erase("b"), 0u);
  EXPECT_EQ(m, (ValueMap{{"a", Value(1)}, {"c", Value(3)}}));
  EXPECT_EQ(m.erase("a"), 1u);
  EXPECT_EQ(m, (ValueMap{{"c", Value(3)}}));
}

TEST(ValueMapTest, SubscriptInsertsThenUpdates) {
  ValueMap m;
  EXPECT_TRUE(m["k"].is_null());  // inserts a null value
  EXPECT_EQ(m.size(), 1u);
  m["k"] = Value(7);
  m["j"] = Value(6);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at("k"), Value(7));
  m[std::string("k")] = Value("updated");
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at("k"), Value("updated"));
  EXPECT_EQ(m.begin()->first, "j");
}

TEST(ValueMapTest, EmplaceKeepsAnExistingValue) {
  ValueMap m;
  auto [it, inserted] = m.emplace("k", 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, Value(1));
  auto [again, inserted_again] = m.emplace("k", 2);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again->second, Value(1));
}

TEST(ValueMapTest, Equality) {
  const ValueMap a{{"x", Value(1)}, {"y", Value("s")}};
  EXPECT_EQ(a, (ValueMap{{"y", Value("s")}, {"x", Value(1)}}));
  EXPECT_FALSE(a == (ValueMap{{"x", Value(1)}}));
  EXPECT_FALSE(a == (ValueMap{{"x", Value(1)}, {"y", Value("t")}}));
  EXPECT_FALSE(a == (ValueMap{{"x", Value(1)}, {"z", Value("s")}}));
  EXPECT_EQ(ValueMap{}, ValueMap{});
}

TEST(ValueMapTest, FromUnsortedKeepsTheNamedDuplicate) {
  using E = std::vector<ValueMap::value_type>;
  const E entries = {{"b", Value(1)}, {"a", Value(2)}, {"b", Value(3)},
                     {"a", Value(4)}, {"b", Value(5)}};
  EXPECT_EQ(ValueMap::from_unsorted(entries,
                                    ValueMap::Duplicates::kKeepFirst),
            (ValueMap{{"a", Value(2)}, {"b", Value(1)}}));
  EXPECT_EQ(ValueMap::from_unsorted(entries, ValueMap::Duplicates::kKeepLast),
            (ValueMap{{"a", Value(4)}, {"b", Value(5)}}));
  // Past the insertion-sort size: 40 entries, keys 19..0 twice over.
  E many;
  for (int round = 0; round < 2; ++round) {
    for (int k = 19; k >= 0; --k) {
      many.emplace_back("k" + std::to_string(100 + k), Value(round));
    }
  }
  const ValueMap first =
      ValueMap::from_unsorted(many, ValueMap::Duplicates::kKeepFirst);
  const ValueMap last =
      ValueMap::from_unsorted(many, ValueMap::Duplicates::kKeepLast);
  ASSERT_EQ(first.size(), 20u);
  ASSERT_EQ(last.size(), 20u);
  EXPECT_EQ(first.begin()->first, "k100");
  for (const auto& [k, v] : first) EXPECT_EQ(v, Value(0)) << k;
  for (const auto& [k, v] : last) EXPECT_EQ(v, Value(1)) << k;
  // Already strictly ascending: adopted as is.
  EXPECT_EQ(ValueMap::from_unsorted(E{{"a", Value(1)}, {"b", Value(2)}},
                                    ValueMap::Duplicates::kKeepLast)
                .size(),
            2u);
}

}  // namespace
}  // namespace hcm
