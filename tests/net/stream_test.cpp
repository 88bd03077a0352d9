#include "net/stream.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace hcm::net {
namespace {

BlockStream blocks(std::string_view bytes) {
  BlockStream out;
  out.append(bytes);
  return out;
}

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a = &net.add_node("client");
    b = &net.add_node("server");
    eth = &net.add_ethernet("lan", sim::microseconds(200), 100'000'000);
    net.attach(*a, *eth);
    net.attach(*b, *eth);
  }

  // Establishes a connection and returns both ends.
  std::pair<StreamPtr, StreamPtr> make_pair_on_port(std::uint16_t port) {
    StreamPtr server_side, client_side;
    EXPECT_TRUE(b->listen(port, [&](StreamPtr s) { server_side = s; }).is_ok());
    net.connect(a->id(), {b->id(), port}, [&](Result<StreamPtr> r) {
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      client_side = r.value();
    });
    sched.run();
    EXPECT_NE(server_side, nullptr);
    EXPECT_NE(client_side, nullptr);
    return {client_side, server_side};
  }

  sim::Scheduler sched;
  Network net{sched};
  Node* a = nullptr;
  Node* b = nullptr;
  EthernetSegment* eth = nullptr;
};

TEST_F(StreamTest, ConnectAndExchange) {
  auto [client, server] = make_pair_on_port(80);
  std::string server_got, client_got;
  server->set_on_data([&](BlockStream&& d) {
    server_got += d.to_string();
    server->send(blocks("pong"));
  });
  client->set_on_data([&](BlockStream&& d) { client_got += d.to_string(); });
  client->send(blocks("ping"));
  sched.run();
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
}

TEST_F(StreamTest, ConnectionRefusedWithoutListener) {
  Status seen;
  bool called = false;
  net.connect(a->id(), {b->id(), 81}, [&](Result<StreamPtr> r) {
    called = true;
    ASSERT_FALSE(r.is_ok());
    seen = r.status();
  });
  sched.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(seen.code(), StatusCode::kUnavailable);
}

TEST_F(StreamTest, ConnectFailsWithoutRoute) {
  Node& isolated = net.add_node("isolated");
  bool called = false;
  net.connect(isolated.id(), {b->id(), 80}, [&](Result<StreamPtr> r) {
    called = true;
    EXPECT_FALSE(r.is_ok());
  });
  sched.run();
  EXPECT_TRUE(called);
}

TEST_F(StreamTest, FifoOrderingPreserved) {
  auto [client, server] = make_pair_on_port(80);
  std::string got;
  server->set_on_data([&](BlockStream&& d) { got += d.to_string(); });
  // Mixed sizes: a large message takes longer on the wire, but must not
  // overtake order.
  client->send(blocks(std::string(50000, 'A')));
  client->send(blocks("B"));
  client->send(blocks(std::string(10000, 'C')));
  client->send(blocks("D"));
  sched.run();
  ASSERT_EQ(got.size(), 50000u + 1 + 10000 + 1);
  EXPECT_EQ(got[50000], 'B');
  EXPECT_EQ(got.back(), 'D');
}

TEST_F(StreamTest, DataBeforeHandlerIsBuffered) {
  auto [client, server] = make_pair_on_port(80);
  client->send(blocks("early"));
  sched.run();
  std::string got;
  server->set_on_data([&](BlockStream&& d) { got = d.to_string(); });
  EXPECT_EQ(got, "early");
}

TEST_F(StreamTest, EarlyChunksArriveOnceInOrder) {
  // Chunks that arrive before the handler is set are spliced into one
  // buffer: a small one, one past a 16 KB block, and a small one again
  // (copied into spare room, relinked, copied). The handler sees every
  // byte exactly once, in order, and later sends follow them.
  auto [client, server] = make_pair_on_port(80);
  const std::string big(20'000, 'b');
  client->send(blocks("first|"));
  client->send(blocks(big));
  client->send(blocks("|third"));
  sched.run();
  std::string got;
  int deliveries = 0;
  server->set_on_data([&](BlockStream&& d) {
    ++deliveries;
    d.append_to(got);
  });
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got, "first|" + big + "|third");
  client->send(blocks("|fourth"));
  sched.run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(got, "first|" + big + "|third|fourth");
}

TEST_F(StreamTest, HandlerMayCloseDuringEarlyDelivery) {
  // The handler closes its end from inside the delivery of the
  // buffered bytes: it still reads all of them, the peer sees the
  // close, and nothing arrives afterwards.
  auto [client, server] = make_pair_on_port(80);
  client->send(blocks("one"));
  client->send(blocks("two"));
  sched.run();
  bool client_closed = false;
  client->set_on_close([&] { client_closed = true; });
  std::string got;
  int deliveries = 0;
  server->set_on_data([&](BlockStream&& d) {
    ++deliveries;
    server->close();
    d.append_to(got);
  });
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got, "onetwo");
  EXPECT_FALSE(server->is_open());
  client->send(blocks("late"));
  sched.run();
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(deliveries, 1);
}

TEST_F(StreamTest, CloseNotifiesPeer) {
  auto [client, server] = make_pair_on_port(80);
  bool server_closed = false;
  server->set_on_close([&] { server_closed = true; });
  client->close();
  EXPECT_FALSE(client->is_open());
  sched.run();
  EXPECT_TRUE(server_closed);
  EXPECT_FALSE(server->is_open());
}

TEST_F(StreamTest, CloseBeforeHandlerIsDeferred) {
  auto [client, server] = make_pair_on_port(80);
  client->close();
  sched.run();
  bool notified = false;
  server->set_on_close([&] { notified = true; });
  EXPECT_TRUE(notified);
}

TEST_F(StreamTest, SendAfterCloseIsDropped) {
  auto [client, server] = make_pair_on_port(80);
  int got = 0;
  server->set_on_data([&](BlockStream&&) { ++got; });
  client->close();
  client->send(blocks("late"));
  sched.run();
  EXPECT_EQ(got, 0);
}

TEST_F(StreamTest, SegmentFailureResetsConnection) {
  auto [client, server] = make_pair_on_port(80);
  bool client_closed = false, server_closed = false;
  client->set_on_close([&] { client_closed = true; });
  server->set_on_close([&] { server_closed = true; });
  eth->set_up(false);
  client->send(blocks("doomed"));
  sched.run();
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
}

TEST_F(StreamTest, ByteCounters) {
  auto [client, server] = make_pair_on_port(80);
  server->set_on_data([](BlockStream&&) {});
  client->send(blocks(std::string(128, '\0')));
  sched.run();
  EXPECT_EQ(client->bytes_sent(), 128u);
  EXPECT_EQ(server->bytes_received(), 128u);
}

TEST_F(StreamTest, LatencyIsRealistic) {
  auto [client, server] = make_pair_on_port(80);
  sim::SimTime sent_at = sched.now();
  sim::SimTime got_at = 0;
  server->set_on_data([&](BlockStream&&) { got_at = sched.now(); });
  client->send(blocks(std::string(1000, '\0')));
  sched.run();
  // One segment crossing: at least base latency (200us).
  EXPECT_GE(got_at - sent_at, sim::microseconds(200));
  EXPECT_LT(got_at - sent_at, sim::milliseconds(10));
}

TEST_F(StreamTest, ManyConcurrentConnections) {
  std::vector<StreamPtr> server_held;  // owns the accepted streams
  ASSERT_TRUE(b->listen(90, [&server_held](StreamPtr s) {
                 Stream* raw = s.get();  // owned by server_held below
                 s->set_on_data([raw](BlockStream&& d) { raw->send(std::move(d)); });
                 server_held.push_back(std::move(s));
               }).is_ok());
  int replies = 0;
  std::vector<StreamPtr> held;  // client must keep its streams alive
  for (int i = 0; i < 50; ++i) {
    net.connect(a->id(), {b->id(), 90}, [&](Result<StreamPtr> r) {
      ASSERT_TRUE(r.is_ok());
      auto stream = r.value();
      held.push_back(stream);
      stream->set_on_data([&replies](BlockStream&&) { ++replies; });
      stream->send(blocks("echo"));
    });
  }
  sched.run();
  EXPECT_EQ(replies, 50);
}

}  // namespace
}  // namespace hcm::net
