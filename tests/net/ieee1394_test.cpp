#include "net/ieee1394.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace hcm::net {
namespace {

class Ieee1394Test : public ::testing::Test {
 protected:
  void SetUp() override {
    bus = &net.add_ieee1394("firewire");
    a = &net.add_node("dv-camera");
    b = &net.add_node("dtv");
    net.attach(*a, *bus);
    net.attach(*b, *bus);
  }

  sim::Scheduler sched;
  Network net{sched};
  Ieee1394Bus* bus = nullptr;
  Node* a = nullptr;
  Node* b = nullptr;
};

TEST_F(Ieee1394Test, AsyncPacketsViaDatagramPath) {
  bool got = false;
  b->bind(0x100, [&](Endpoint, const Bytes&) { got = true; });
  net.send_datagram({a->id(), 1}, {b->id(), 0x100}, Bytes(512));
  sched.run();
  EXPECT_TRUE(got);
}

TEST_F(Ieee1394Test, BusResetBumpsGenerationAndNotifies) {
  std::uint32_t seen_gen = 0;
  int resets = 0;
  bus->subscribe_reset(a->id(), [&](std::uint32_t gen) {
    seen_gen = gen;
    ++resets;
  });
  EXPECT_EQ(bus->generation(), 0u);
  bus->reset_bus();
  bus->reset_bus();
  sched.run();
  EXPECT_EQ(bus->generation(), 2u);
  EXPECT_EQ(seen_gen, 2u);
  EXPECT_EQ(resets, 2);
}

TEST_F(Ieee1394Test, EveryResetHandlerOfANodeRuns) {
  // A FAV node's Registry and Event Manager both watch resets.
  std::vector<std::string> ran;
  bus->subscribe_reset(a->id(), [&](std::uint32_t) { ran.push_back("registry"); });
  bus->subscribe_reset(a->id(), [&](std::uint32_t) { ran.push_back("events"); });
  bus->reset_bus();
  sched.run();
  EXPECT_EQ(ran, (std::vector<std::string>{"registry", "events"}));
}

TEST_F(Ieee1394Test, IsoChannelAllocation) {
  auto ch1 = bus->allocate_channel(1024);
  auto ch2 = bus->allocate_channel(1024);
  ASSERT_TRUE(ch1.is_ok());
  ASSERT_TRUE(ch2.is_ok());
  EXPECT_NE(ch1.value(), ch2.value());
  EXPECT_EQ(bus->channels_in_use(), 2);
  EXPECT_TRUE(bus->release_channel(ch1.value()).is_ok());
  EXPECT_EQ(bus->channels_in_use(), 1);
  EXPECT_FALSE(bus->release_channel(ch1.value()).is_ok());
}

TEST_F(Ieee1394Test, ChannelExhaustion) {
  for (int i = 0; i < kIsoChannelCount; ++i) {
    ASSERT_TRUE(bus->allocate_channel(64).is_ok());
  }
  auto extra = bus->allocate_channel(64);
  ASSERT_FALSE(extra.is_ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(Ieee1394Test, IsoDeliveryToListeners) {
  auto ch = bus->allocate_channel(188);
  ASSERT_TRUE(ch.is_ok());
  int packets = 0;
  std::size_t bytes = 0;
  auto listener = bus->listen_channel(ch.value(), [&](IsoChannel, const Bytes& p) {
    ++packets;
    bytes += p.size();
  });
  (void)listener;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bus->send_iso(ch.value(), Bytes(188)).is_ok());
  }
  sched.run();
  EXPECT_EQ(packets, 10);
  EXPECT_EQ(bytes, 1880u);
  EXPECT_EQ(bus->iso_packets_sent(), 10u);
}

TEST_F(Ieee1394Test, IsoOnUnallocatedChannelFails) {
  EXPECT_FALSE(bus->send_iso(63, Bytes(10)).is_ok());
}

TEST_F(Ieee1394Test, IsoFailsWhenBusDown) {
  auto ch = bus->allocate_channel(188);
  ASSERT_TRUE(ch.is_ok());
  bus->set_up(false);
  EXPECT_FALSE(bus->send_iso(ch.value(), Bytes(10)).is_ok());
}

TEST_F(Ieee1394Test, TransitFasterThanEthernetForBulk) {
  // S400 moves bulk data faster than 100 Mb/s Ethernet.
  EthernetSegment eth("lan", sim::microseconds(200), 100'000'000);
  EXPECT_LT(bus->transit_time(100000), eth.transit_time(100000));
}

}  // namespace
}  // namespace hcm::net
