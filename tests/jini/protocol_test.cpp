#include "jini/protocol.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace hcm::jini
