#include "common/value_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_util.hpp"

namespace hcm {
namespace {

class ValueCodecRoundTrip : public ::testing::TestWithParam<Value> {};

TEST_P(ValueCodecRoundTrip, EncodeDecodeIsIdentity) {
  const Value& original = GetParam();
  Bytes encoded = encode_value(original);
  auto decoded = decode_value(encoded);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), original);
}

INSTANTIATE_TEST_SUITE_P(
    AllValueShapes, ValueCodecRoundTrip,
    ::testing::Values(
        Value(),                                   //
        Value(true), Value(false),                 //
        Value(0), Value(-1), Value(INT64_MAX), Value(INT64_MIN),
        Value(0.0), Value(-3.25), Value(1e300),
        Value(""), Value("hello world"),
        Value(std::string(10000, 'x')),            // large string
        Value(Bytes{}), Value(Bytes{0, 255, 127}),
        Value(ValueList{}),
        Value(ValueList{Value(1), Value("a"), Value(true)}),
        Value(ValueMap{}),
        Value(ValueMap{{"k1", Value(1)}, {"k2", Value("v")}}),
        Value(ValueMap{
            {"nested",
             Value(ValueList{Value(ValueMap{{"deep", Value(42)}})})}})));

TEST(ValueCodecTest, TruncatedBufferFails) {
  Bytes encoded = encode_value(Value("a long enough string"));
  encoded.resize(encoded.size() / 2);
  EXPECT_FALSE(decode_value(encoded).is_ok());
}

TEST(ValueCodecTest, TrailingGarbageFails) {
  Bytes encoded = encode_value(Value(1));
  encoded.push_back(0xFF);
  EXPECT_FALSE(decode_value(encoded).is_ok());
}

TEST(ValueCodecTest, UnknownTagFails) {
  Bytes bad{0x77};
  auto r = decode_value(bad);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
}

TEST(ValueCodecTest, HostileListLengthRejected) {
  // Tag = list, length = 0xFFFFFFFF with no elements: must not OOM.
  Bytes bad{static_cast<std::uint8_t>(ValueType::kList), 0xFF, 0xFF, 0xFF,
            0xFF};
  EXPECT_FALSE(decode_value(bad).is_ok());
}

TEST(ValueCodecTest, NestedListCountsDoNotReservePerLevel) {
  // 8 nested lists in 1 MiB, each declaring as many elements as bytes
  // remain after its count, then bytes that are no valid tag. Every
  // count passes the remaining-bytes check, so an uncapped reserve(n)
  // per level would request 8 x 1 MiB x sizeof(Value) before the first
  // element fails to decode.
  Bytes bad(std::size_t{1} << 20, 0xFF);
  std::size_t off = 0;
  for (int level = 0; level < 8; ++level) {
    bad[off++] = static_cast<std::uint8_t>(ValueType::kList);
    const auto n = static_cast<std::uint32_t>(bad.size() - off - 4);
    for (int shift = 24; shift >= 0; shift -= 8) {
      bad[off++] = static_cast<std::uint8_t>(n >> shift);
    }
  }
  ASSERT_TRUE(bench::alloc_hook_installed());
  bench::AllocDelta delta;
  auto r = decode_value(bad);
  const std::uint64_t requested = delta.bytes();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
  EXPECT_LT(requested, 8u << 20) << "bytes requested: " << requested;
}

TEST(ValueCodecTest, ListLongerThanTheReservationCapRoundTrips) {
  ValueList list;
  for (int i = 0; i < 3000; ++i) list.emplace_back(i);
  const Value v(std::move(list));
  auto r = decode_value(encode_value(v));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), v);
}

TEST(ValueCodecTest, DeepNestingRejected) {
  // 100 nested single-element lists exceed the decoder depth bound.
  Value v(42);
  for (int i = 0; i < 100; ++i) v = Value(ValueList{std::move(v)});
  Bytes encoded = encode_value(v);
  auto r = decode_value(encoded);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
}

TEST(ValueCodecTest, ModerateNestingAccepted) {
  Value v(42);
  for (int i = 0; i < 30; ++i) v = Value(ValueList{std::move(v)});
  auto r = decode_value(encode_value(v));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), v);
}

TEST(ValueCodecTest, StreamingMultipleValues) {
  BufWriter w;
  encode_value(Value(1), w);
  encode_value(Value("two"), w);
  Bytes buf = w.take();
  BufReader r(buf);
  EXPECT_EQ(decode_value(r).value(), Value(1));
  EXPECT_EQ(decode_value(r).value(), Value("two"));
  EXPECT_TRUE(r.at_end());
}

// A map frame written by hand, entries in the given order, so keys can
// arrive unsorted or repeated as a peer may send them.
Bytes map_frame(const std::vector<std::pair<std::string, Value>>& entries) {
  BufWriter w;
  w.put_u8(static_cast<std::uint8_t>(ValueType::kMap));
  w.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [k, v] : entries) {
    w.put_string(k);
    encode_value(v, w);
  }
  return w.take();
}

bool keys_ascend(const ValueMap& m) {
  return std::adjacent_find(m.begin(), m.end(), [](const auto& a,
                                                   const auto& b) {
           return !(a.first < b.first);
         }) == m.end();
}

TEST(ValueCodecTest, DescendingKeyMapDecodesInLogLinearTime) {
  // 80,000 distinct keys, highest first: sorted insertion key by key
  // would move every entry already decoded, ~3.2e9 entry moves in all.
  constexpr int kKeys = 80000;
  std::vector<std::pair<std::string, Value>> entries;
  entries.reserve(kKeys);
  char key[16];
  for (int i = kKeys - 1; i >= 0; --i) {
    std::snprintf(key, sizeof key, "k%05d", i);
    entries.emplace_back(key, Value(i));
  }
  const Bytes frame = map_frame(entries);
  const auto start = std::chrono::steady_clock::now();
  auto r = decode_value(frame);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  const ValueMap& m = r.value().as_map();
  ASSERT_EQ(m.size(), static_cast<std::size_t>(kKeys));
  EXPECT_TRUE(keys_ascend(m));
  EXPECT_EQ(m.begin()->first, "k00000");
  EXPECT_EQ(r.value().at("k04711"), Value(4711));
}

TEST(ValueCodecTest, DuplicateKeysKeepTheFirstValue) {
  auto r = decode_value(map_frame({{"a", Value(1)}, {"a", Value(2)}}));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), Value(ValueMap{{"a", Value(1)}}));
}

TEST(ValueCodecTest, UnorderedMapWithDuplicatesDecodesSorted) {
  auto r = decode_value(map_frame({{"c", Value(1)},
                                   {"a", Value(2)},
                                   {"c", Value(3)},
                                   {"b", Value(4)},
                                   {"a", Value(5)}}));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), Value(ValueMap{{"a", Value(2)},
                                      {"b", Value(4)},
                                      {"c", Value(1)}}));
  EXPECT_TRUE(keys_ascend(r.value().as_map()));
}

}  // namespace
}  // namespace hcm
