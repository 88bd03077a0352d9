#include "net/network.hpp"

#include <gtest/gtest.h>

#include "bench/bench_util.hpp"

namespace hcm::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
  Network net{sched};
};

TEST_F(NetworkTest, AddAndFindNodes) {
  Node& a = net.add_node("alpha");
  Node& b = net.add_node("beta");
  EXPECT_EQ(a.id(), 1u);
  EXPECT_EQ(b.id(), 2u);
  EXPECT_EQ(net.find_node("alpha"), &a);
  EXPECT_EQ(net.find_node("nope"), nullptr);
  EXPECT_EQ(net.node(2), &b);
  EXPECT_EQ(net.node(0), nullptr);
  EXPECT_EQ(net.node(99), nullptr);
}

TEST_F(NetworkTest, DatagramDeliveredOnSharedSegment) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& eth = net.add_ethernet("lan", sim::microseconds(200), 100'000'000);
  net.attach(a, eth);
  net.attach(b, eth);

  Bytes received;
  Endpoint from_seen;
  ASSERT_TRUE(b.bind(7, [&](Endpoint from, const Bytes& data) {
                 received = data;
                 from_seen = from;
               }).is_ok());
  net.send_datagram({a.id(), 99}, {b.id(), 7}, to_bytes("ping"));
  sched.run();
  EXPECT_EQ(to_string(received), "ping");
  EXPECT_EQ(from_seen, (Endpoint{a.id(), 99}));
}

TEST_F(NetworkTest, DatagramDroppedWithoutRoute) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  // No shared segment at all.
  b.bind(7, [&](Endpoint, const Bytes&) { FAIL() << "should not deliver"; });
  net.send_datagram({a.id(), 1}, {b.id(), 7}, to_bytes("x"));
  sched.run();
  EXPECT_EQ(net.datagrams_dropped(), 1u);
}

TEST_F(NetworkTest, MultiHopRouteThroughGateway) {
  Node& a = net.add_node("a");
  Node& gw = net.add_node("gw");
  Node& b = net.add_node("b");
  auto& lan1 = net.add_ethernet("lan1", sim::microseconds(100), 100'000'000);
  auto& lan2 = net.add_ethernet("lan2", sim::microseconds(100), 100'000'000);
  net.attach(a, lan1);
  net.attach(gw, lan1);
  net.attach(gw, lan2);
  net.attach(b, lan2);

  bool got = false;
  b.bind(7, [&](Endpoint, const Bytes&) { got = true; });
  net.send_datagram({a.id(), 1}, {b.id(), 7}, to_bytes("x"));
  sched.run();
  EXPECT_TRUE(got);

  auto latency = net.route_latency(a.id(), b.id(), 100);
  ASSERT_TRUE(latency.is_ok());
  // Two segment crossings plus forwarding: strictly more than one hop.
  auto one_hop = net.route_latency(a.id(), gw.id(), 100);
  EXPECT_GT(latency.value(), one_hop.value());
}

TEST_F(NetworkTest, RouteFailsWhenSegmentDown) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& eth = net.add_ethernet("lan", sim::microseconds(100), 100'000'000);
  net.attach(a, eth);
  net.attach(b, eth);
  EXPECT_TRUE(net.route_latency(a.id(), b.id(), 10).is_ok());
  eth.set_up(false);
  EXPECT_FALSE(net.route_latency(a.id(), b.id(), 10).is_ok());
  eth.set_up(true);
  EXPECT_TRUE(net.route_latency(a.id(), b.id(), 10).is_ok());
}

TEST_F(NetworkTest, RouteFailsWhenNodeDown) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& eth = net.add_ethernet("lan", sim::microseconds(100), 100'000'000);
  net.attach(a, eth);
  net.attach(b, eth);
  b.set_up(false);
  EXPECT_FALSE(net.route_latency(a.id(), b.id(), 10).is_ok());
}

TEST_F(NetworkTest, DownGatewayBreaksMultiHop) {
  Node& a = net.add_node("a");
  Node& gw = net.add_node("gw");
  Node& b = net.add_node("b");
  auto& lan1 = net.add_ethernet("lan1", sim::microseconds(100), 100'000'000);
  auto& lan2 = net.add_ethernet("lan2", sim::microseconds(100), 100'000'000);
  net.attach(a, lan1);
  net.attach(gw, lan1);
  net.attach(gw, lan2);
  net.attach(b, lan2);
  gw.set_up(false);
  EXPECT_FALSE(net.route_latency(a.id(), b.id(), 10).is_ok());
}

TEST_F(NetworkTest, RedundantPathSurvivesOneSegmentFailure) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& eth1 = net.add_ethernet("lan1", sim::microseconds(100), 100'000'000);
  auto& eth2 = net.add_ethernet("lan2", sim::microseconds(100), 100'000'000);
  net.attach(a, eth1);
  net.attach(b, eth1);
  net.attach(a, eth2);
  net.attach(b, eth2);
  eth1.set_up(false);
  EXPECT_TRUE(net.route_latency(a.id(), b.id(), 10).is_ok());
}

TEST_F(NetworkTest, MulticastReachesGroupMembersOnly) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Node& c = net.add_node("c");
  auto& eth = net.add_ethernet("lan", sim::microseconds(100), 100'000'000);
  net.attach(a, eth);
  net.attach(b, eth);
  net.attach(c, eth);
  net.join_group(b.id(), 1);
  // c does not join.

  int b_got = 0, c_got = 0;
  b.bind(5, [&](Endpoint, const Bytes&) { ++b_got; });
  c.bind(5, [&](Endpoint, const Bytes&) { ++c_got; });
  net.send_multicast({a.id(), 5}, 1, 5, to_bytes("announce"));
  sched.run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
}

TEST_F(NetworkTest, MulticastDoesNotCrossGateways) {
  Node& a = net.add_node("a");
  Node& gw = net.add_node("gw");
  Node& b = net.add_node("b");
  auto& lan1 = net.add_ethernet("lan1", sim::microseconds(100), 100'000'000);
  auto& lan2 = net.add_ethernet("lan2", sim::microseconds(100), 100'000'000);
  net.attach(a, lan1);
  net.attach(gw, lan1);
  net.attach(gw, lan2);
  net.attach(b, lan2);
  net.join_group(b.id(), 9);
  net.join_group(gw.id(), 9);

  int b_got = 0, gw_got = 0;
  b.bind(5, [&](Endpoint, const Bytes&) { ++b_got; });
  gw.bind(5, [&](Endpoint, const Bytes&) { ++gw_got; });
  net.send_multicast({a.id(), 5}, 9, 5, to_bytes("x"));
  sched.run();
  EXPECT_EQ(gw_got, 1);  // same segment
  EXPECT_EQ(b_got, 0);   // across the gateway: not delivered
}

TEST_F(NetworkTest, DropProbabilityLosesDatagrams) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& eth = net.add_ethernet("lan", sim::microseconds(100), 100'000'000);
  net.attach(a, eth);
  net.attach(b, eth);
  eth.set_drop_probability(1.0);
  int got = 0;
  b.bind(7, [&](Endpoint, const Bytes&) { ++got; });
  for (int i = 0; i < 10; ++i) {
    net.send_datagram({a.id(), 1}, {b.id(), 7}, to_bytes("x"));
  }
  sched.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.datagrams_dropped(), 10u);
}

TEST_F(NetworkTest, SegmentAccountsTraffic) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& eth = net.add_ethernet("lan", sim::microseconds(100), 100'000'000);
  net.attach(a, eth);
  net.attach(b, eth);
  b.bind(7, [](Endpoint, const Bytes&) {});
  net.send_datagram({a.id(), 1}, {b.id(), 7}, Bytes(100));
  sched.run();
  EXPECT_EQ(eth.bytes_carried(), 100u);
  EXPECT_EQ(eth.frames_carried(), 1u);
}

TEST_F(NetworkTest, BindSamePortTwiceFails) {
  Node& a = net.add_node("a");
  EXPECT_TRUE(a.bind(7, [](Endpoint, const Bytes&) {}).is_ok());
  EXPECT_FALSE(a.bind(7, [](Endpoint, const Bytes&) {}).is_ok());
  a.unbind(7);
  EXPECT_TRUE(a.bind(7, [](Endpoint, const Bytes&) {}).is_ok());
}

TEST_F(NetworkTest, EthernetTransitScalesWithSize) {
  auto& eth = net.add_ethernet("lan", sim::microseconds(100), 100'000'000);
  EXPECT_LT(eth.transit_time(100), eth.transit_time(100000));
}

TEST_F(NetworkTest, WarmDatagramsAllocateNothing) {
  // Each round: a unicast that is delivered, one dropped for want of a
  // handler, and a multicast to three members. Every payload is a
  // recycled buffer, and each copy goes back to the spare list once
  // its handler returns (or it is dropped), so a warm round allocates
  // nothing.
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Node& c = net.add_node("c");
  Node& d = net.add_node("d");
  auto& eth = net.add_ethernet("lan", sim::microseconds(100), 100'000'000);
  for (Node* n : {&a, &b, &c, &d}) net.attach(*n, eth);
  std::size_t unicast_bytes = 0;
  int announced = 0;
  ASSERT_TRUE(b.bind(7, [&](Endpoint, const Bytes& data) {
                 unicast_bytes += data.size();
               }).is_ok());
  for (Node* n : {&b, &c, &d}) {
    net.join_group(n->id(), 3);
    ASSERT_TRUE(n->bind(5, [&](Endpoint, const Bytes&) { ++announced; })
                    .is_ok());
  }
  auto round = [&] {
    Bytes report = net.datagram_buffer();
    report.assign({1, 2, 3, 4});
    net.send_datagram({a.id(), 9}, {b.id(), 7}, std::move(report));
    Bytes stray = net.datagram_buffer();
    stray.assign({5, 6});
    net.send_datagram({a.id(), 9}, {c.id(), 8}, std::move(stray));
    Bytes hello = net.datagram_buffer();
    hello.assign({7, 8, 9});
    net.send_multicast({a.id(), 5}, 3, 5, std::move(hello));
    sched.run();
  };
  for (int i = 0; i < 5; ++i) round();
  ASSERT_TRUE(bench::alloc_hook_installed());
  const int kRounds = 100;
  bench::AllocDelta delta;
  for (int i = 0; i < kRounds; ++i) round();
  const double per_op = static_cast<double>(delta.allocs()) / (3 * kRounds);
  EXPECT_LT(per_op, 0.1) << delta.allocs() << " allocations";
  EXPECT_EQ(unicast_bytes, 4u * (5 + kRounds));
  EXPECT_EQ(announced, 3 * (5 + kRounds));
  EXPECT_EQ(net.datagrams_sent(), 2u * (5 + kRounds));
  EXPECT_EQ(net.datagrams_dropped(), 5u + kRounds);
}

TEST_F(NetworkTest, RecycledBufferCarriesNoStaleTail) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  auto& eth = net.add_ethernet("lan", sim::microseconds(100), 100'000'000);
  net.attach(a, eth);
  net.attach(b, eth);
  std::vector<Bytes> seen;
  ASSERT_TRUE(
      b.bind(7, [&](Endpoint, const Bytes& data) { seen.push_back(data); })
          .is_ok());
  net.send_datagram({a.id(), 1}, {b.id(), 7}, Bytes(100, 0xee));
  sched.run();
  Bytes next = net.datagram_buffer();
  EXPECT_TRUE(next.empty());
  EXPECT_GE(next.capacity(), 100u);  // the first datagram's storage
  next.assign({1, 2, 3});
  net.send_datagram({a.id(), 1}, {b.id(), 7}, std::move(next));
  sched.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Bytes(100, 0xee));
  EXPECT_EQ(seen[1], (Bytes{1, 2, 3}));
}

}  // namespace
}  // namespace hcm::net
