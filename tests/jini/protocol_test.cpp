#include "jini/protocol.hpp"

#include <gtest/gtest.h>

#include "common/value_codec.hpp"

namespace hcm::jini {
namespace {

ServiceItem sample_item() {
  ServiceItem item;
  item.service_id = "svc-42";
  item.name = "laserdisc";
  item.interface = InterfaceDesc{
      "MediaPlayer",
      {MethodDesc{"play", {}, ValueType::kBool, false},
       MethodDesc{"seek", {{"pos", ValueType::kInt}}, ValueType::kBool,
                  false}}};
  item.endpoint = {7, 4170};
  item.attributes = ValueMap{{"vendor", Value("pioneer")}};
  return item;
}

TEST(JiniProtocolTest, ServiceItemRoundTrip) {
  auto item = sample_item();
  auto decoded = ServiceItem::from_value(item.to_value());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), item);
}

TEST(JiniProtocolTest, ServiceItemRejectsGarbage) {
  EXPECT_FALSE(ServiceItem::from_value(Value(1)).is_ok());
  EXPECT_FALSE(ServiceItem::from_value(Value(ValueMap{})).is_ok());
  // Missing interface.
  EXPECT_FALSE(
      ServiceItem::from_value(Value(ValueMap{{"id", Value("x")}})).is_ok());
}

TEST(JiniProtocolTest, CallRoundTrip) {
  CallMessage call;
  call.call_id = 99;
  call.service_id = "svc";
  call.method = "doThing";
  call.args = {Value(1), Value("two")};
  call.one_way = true;
  auto decoded = decode_call(encode_call(call));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().call_id, 99u);
  EXPECT_EQ(decoded.value().service_id, "svc");
  EXPECT_EQ(decoded.value().method, "doThing");
  EXPECT_EQ(decoded.value().args, call.args);
  EXPECT_TRUE(decoded.value().one_way);
}

TEST(JiniProtocolTest, ReplyOkRoundTrip) {
  ReplyMessage reply;
  reply.call_id = 7;
  reply.value = Value(ValueMap{{"k", Value(3)}});
  auto decoded = decode_reply(encode_reply(reply));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().status.is_ok());
  EXPECT_EQ(decoded.value().value, reply.value);
}

TEST(JiniProtocolTest, ReplyErrorRoundTrip) {
  ReplyMessage reply;
  reply.call_id = 8;
  reply.status = timeout("too slow");
  auto decoded = decode_reply(encode_reply(reply));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().status.code(), StatusCode::kTimeout);
  EXPECT_EQ(decoded.value().status.message(), "too slow");
}

TEST(JiniProtocolTest, DecodeRejectsMalformed) {
  EXPECT_FALSE(decode_call(Bytes{1, 2, 3}).is_ok());
  EXPECT_FALSE(decode_reply(Bytes{}).is_ok());
  // A valid Value that is not a call map.
  EXPECT_FALSE(decode_call(encode_value(Value("nope"))).is_ok());
}

}  // namespace
}  // namespace hcm::jini
