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

// A binary server decodes each request's argument list into the one
// the previous request left. Whatever shape that list had, and after a
// rejected frame too, the result must equal a fresh decode; a repeat of
// the same shape allocates nothing.
TEST(ValueCodecTest, RecycledListDecodesAsAFreshOne) {
  const Value long_map(ValueMap{{"a", Value(1)},
                                {"b", Value(std::string(40, 'b'))},
                                {"c", Value(ValueList{Value(3), Value(4)})}});
  auto list_frame = [](ValueList items) {
    return encode_value(Value(std::move(items)));
  };
  Bytes rejected = list_frame({long_map, Value(std::string(30, 's'))});
  rejected.resize(rejected.size() - 5);  // the string runs past the end
  Bytes descending;
  {
    std::vector<std::pair<std::string, Value>> entries;
    for (int i = 40; i > 0; --i) {
      entries.emplace_back("k" + std::to_string(i), i);
    }
    entries.emplace_back("k7", -7);
    const Bytes map = map_frame(entries);
    BufWriter w;
    w.put_u8(static_cast<std::uint8_t>(ValueType::kList));
    w.put_u32(1);
    w.put_raw(std::string_view(reinterpret_cast<const char*>(map.data()),
                               map.size()));
    descending = w.take();
  }
  const std::vector<Bytes> frames = {
      list_frame({long_map, Value(std::string(30, 's'))}),
      list_frame({Value(std::string(20, 'x')), long_map, Value(Bytes(64, 7))}),
      list_frame({Value(ValueMap{{"b", Value(std::string("x"))}})}),
      rejected,
      list_frame({long_map, Value(), Value(2.5), Value(true)}),
      descending,
      list_frame({long_map, Value(std::string(30, 's'))}),
  };
  ValueList recycled;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    BufReader fresh_reader(frames[i]);
    auto fresh = decode_value(fresh_reader);
    BufReader r(frames[i]);
    auto s = decode_value(r, recycled);
    ASSERT_EQ(s.is_ok(), fresh.is_ok()) << "frame " << i;
    if (!s.is_ok()) continue;
    EXPECT_EQ(Value(recycled), fresh.value()) << "frame " << i;
  }
  // The last frame again, into the tree it just left.
  bench::AllocDelta delta;
  BufReader warm(frames.back());
  ASSERT_TRUE(decode_value(warm, recycled).is_ok());
  EXPECT_EQ(delta.allocs(), 0u);
  EXPECT_EQ(Value(recycled), Value(ValueList{long_map,
                                             Value(std::string(30, 's'))}));
}

}  // namespace
}  // namespace hcm
