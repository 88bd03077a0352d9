#include "mail/mail.hpp"

#include <gtest/gtest.h>

namespace hcm::mail {
namespace {

class MailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node = &net.add_node("mail-host");
    client_node = &net.add_node("gateway");
    auto& eth = net.add_ethernet("internet", sim::milliseconds(20),
                                 10'000'000);
    net.attach(*server_node, eth);
    net.attach(*client_node, eth);
    server = std::make_unique<MailServer>(net, server_node->id());
    ASSERT_TRUE(server->start().is_ok());
    client = std::make_unique<MailClient>(net, client_node->id(),
                                          server_node->id());
  }

  Status send(const std::string& to, const std::string& subject,
              const std::string& body) {
    Message m;
    m.from = "tester";
    m.to = to;
    m.subject = subject;
    m.body = body;
    std::optional<Status> result;
    client->send(m, [&](const Status& s) { result = s; });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no completion"));
  }

  Result<std::vector<Message>> fetch(const std::string& mailbox) {
    std::optional<Result<std::vector<Message>>> result;
    client->fetch(mailbox, [&](auto r) { result = std::move(r); });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.has_value() ? std::move(*result)
                              : Result<std::vector<Message>>(
                                    internal_error("no completion"));
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* server_node = nullptr;
  net::Node* client_node = nullptr;
  std::unique_ptr<MailServer> server;
  std::unique_ptr<MailClient> client;
};

TEST_F(MailTest, SmtpDeliversToMailbox) {
  ASSERT_TRUE(send("home", "hello", "body text").is_ok());
  EXPECT_EQ(server->mailbox_size("home"), 1u);
  EXPECT_EQ(server->messages_accepted(), 1u);
}

TEST_F(MailTest, PopFetchReturnsAndDrains) {
  ASSERT_TRUE(send("home", "first", "line1\nline2").is_ok());
  ASSERT_TRUE(send("home", "second", "another").is_ok());
  auto messages = fetch("home");
  ASSERT_TRUE(messages.is_ok()) << messages.status().to_string();
  ASSERT_EQ(messages.value().size(), 2u);
  EXPECT_EQ(messages.value()[0].subject, "first");
  EXPECT_EQ(messages.value()[0].body, "line1\nline2");
  EXPECT_EQ(messages.value()[0].from, "tester");
  EXPECT_EQ(messages.value()[1].subject, "second");
  // Fetch deletes: mailbox now empty.
  EXPECT_EQ(server->mailbox_size("home"), 0u);
}

TEST_F(MailTest, FetchEmptyMailbox) {
  auto messages = fetch("nobody");
  ASSERT_TRUE(messages.is_ok());
  EXPECT_TRUE(messages.value().empty());
}

TEST_F(MailTest, MailboxesAreIsolated) {
  ASSERT_TRUE(send("alice", "to alice", "x").is_ok());
  ASSERT_TRUE(send("bob", "to bob", "y").is_ok());
  auto alice = fetch("alice");
  ASSERT_TRUE(alice.is_ok());
  ASSERT_EQ(alice.value().size(), 1u);
  EXPECT_EQ(alice.value()[0].subject, "to alice");
  EXPECT_EQ(server->mailbox_size("bob"), 1u);
}

TEST_F(MailTest, AddressAngleBracketsAndDomainStripped) {
  Message m;
  m.from = "sender@example.com";
  m.to = "home@house.local";
  m.subject = "s";
  m.body = "b";
  std::optional<Status> result;
  client->send(m, [&](const Status& s) { result = s; });
  sched.run();
  ASSERT_TRUE(result->is_ok());
  EXPECT_EQ(server->mailbox_size("home"), 1u);
  auto fetched = fetch("home");
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_EQ(fetched.value()[0].from, "sender");
}

TEST_F(MailTest, WatchPollsAndDelivers) {
  std::vector<Message> seen;
  client->watch("home", sim::seconds(5),
                [&](const Message& m) { seen.push_back(m); });
  // Nothing yet.
  sched.run_until(sched.now() + sim::seconds(6));
  EXPECT_TRUE(seen.empty());

  MailClient other(net, client_node->id(), server_node->id());
  Message m;
  m.from = "other";
  m.to = "home";
  m.subject = "news";
  m.body = "x";
  other.send(m, [](const Status&) {});
  sched.run_until(sched.now() + sim::seconds(10));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].subject, "news");
  client->unwatch();
}

TEST_F(MailTest, WatchLatencyBoundedByPollInterval) {
  // The §4.2 polling cost: worst-case notification latency ~ interval.
  std::optional<sim::SimTime> seen_at;
  client->watch("home", sim::seconds(30),
                [&](const Message&) { seen_at = sched.now(); });
  MailClient other(net, client_node->id(), server_node->id());
  Message m;
  m.from = "o";
  m.to = "home";
  m.subject = "event";
  sim::SimTime sent_at = sched.now();
  other.send(m, [](const Status&) {});
  sched.run_until(sched.now() + sim::seconds(70));
  ASSERT_TRUE(seen_at.has_value());
  auto latency = *seen_at - sent_at;
  EXPECT_GT(latency, sim::seconds(1));
  EXPECT_LE(latency, sim::seconds(31));
  client->unwatch();
}

TEST_F(MailTest, DestroyingWatcherMidPollIsSafe) {
  // A watcher destroyed while its poll's connect or POP dialogue is in
  // flight: the completion must neither run nor re-arm the timer.
  for (int at_ms : {1, 20, 40, 60, 80, 120}) {
    client = std::make_unique<MailClient>(net, client_node->id(),
                                          server_node->id());
    int seen = 0;
    client->watch("home", sim::seconds(5),
                  [&seen](const Message&) { ++seen; });
    Message m;
    m.to = "home";
    m.subject = "s";
    server->deliver(m);
    sched.run_until(sched.now() + sim::seconds(5) +
                    sim::milliseconds(at_ms));
    const int seen_before = seen;
    client.reset();
    sched.run_until(sched.now() + sim::seconds(30));
    EXPECT_EQ(seen, seen_before);
  }
}

TEST_F(MailTest, ServerDownFailsSend) {
  server_node->set_up(false);
  EXPECT_FALSE(send("home", "s", "b").is_ok());
}

TEST_F(MailTest, DirectDeliverBypassesSmtp) {
  Message m;
  m.from = "internal";
  m.to = "box";
  m.subject = "direct";
  server->deliver(m);
  EXPECT_EQ(server->mailbox_size("box"), 1u);
}

}  // namespace
}  // namespace hcm::mail
