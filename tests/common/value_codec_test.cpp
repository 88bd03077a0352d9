#include "common/value_codec.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace hcm
