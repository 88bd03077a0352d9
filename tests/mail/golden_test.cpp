// Golden SMTP and POP dialogues: the exact bytes each side puts on the
// wire, one entry per send(), with the virtual time each one arrives.
// Mail hosts sit on the benchmark's backbone, so for ordinary bodies
// (no CR/LF, no leading '.') these must never change.
#include <gtest/gtest.h>

#include "mail/mail.hpp"
#include "mail_peer.hpp"

namespace hcm::mail {
namespace {

using mailtest::Delivery;
using mailtest::ScriptedClient;
using mailtest::ScriptedServer;

class MailGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node = &net.add_node("mail-host");
    client_node = &net.add_node("gateway");
    auto& eth = net.add_ethernet("internet", sim::milliseconds(20),
                                 10'000'000);
    net.attach(*server_node, eth);
    net.attach(*client_node, eth);
  }

  static Message hello(std::string body) {
    Message m;
    m.from = "tester";
    m.to = "home";
    m.subject = "hello";
    m.body = std::move(body);
    return m;
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* server_node = nullptr;
  net::Node* client_node = nullptr;
};

// MailClient::send against a scripted SMTP server.
TEST_F(MailGoldenTest, SmtpClientSends) {
  ScriptedServer peer(net, *server_node, kSmtpPort, "220 ready\r\n",
                      {{"250 hello\r\n"},
                       {"250 sender OK\r\n"},
                       {"250 recipient OK\r\n"},
                       {"354 end with .\r\n"},
                       {"250 OK message accepted\r\n"},
                       {"221 bye\r\n"}});
  MailClient client(net, client_node->id(), server_node->id());
  std::optional<Status> done;
  client.send(hello("body text"), [&](const Status& s) { done = s; });
  sched.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->is_ok()) << done->to_string();
  const std::vector<Delivery> expected = {
      {100112, "HELO hcm\r\n"},
      {140136, "MAIL FROM:<tester>\r\n"},
      {180160, "RCPT TO:<home>\r\n"},
      {220178, "DATA\r\n"},
      {260215, "Subject: hello\r\n\r\nbody text\r\n.\r\n"},
      {300239, "QUIT\r\n"},
  };
  EXPECT_EQ(peer.received, expected);
}

// A body that crosses a 16 KB block seam still leaves in one send.
TEST_F(MailGoldenTest, SmtpClientSendsLargeBodyInOneSegment) {
  ScriptedServer peer(net, *server_node, kSmtpPort, "220 ready\r\n",
                      {{"250 hello\r\n"},
                       {"250 sender OK\r\n"},
                       {"250 recipient OK\r\n"},
                       {"354 end with .\r\n"},
                       {"250 OK message accepted\r\n"},
                       {"221 bye\r\n"}});
  MailClient client(net, client_node->id(), server_node->id());
  std::string body(49152, 'q');
  std::optional<Status> done;
  client.send(hello(body), [&](const Status& s) { done = s; });
  sched.run();
  ASSERT_TRUE(done.has_value() && done->is_ok());
  ASSERT_EQ(peer.received.size(), 6u);
  EXPECT_EQ(peer.received[4].bytes,
            "Subject: hello\r\n\r\n" + body + "\r\n.\r\n");
  EXPECT_EQ(peer.received[4].at, 299530);
  EXPECT_EQ(peer.received[5].at, 339554);
}

// A scripted SMTP client against MailServer.
TEST_F(MailGoldenTest, SmtpServerReplies) {
  MailServer server(net, server_node->id());
  ASSERT_TRUE(server.start().is_ok());
  ScriptedClient peer(net, client_node->id(), {server_node->id(), kSmtpPort},
                      {{1, "HELO hcm\r\n"},
                       {2, "MAIL FROM:<tester>\r\n"},
                       {3, "RCPT TO:<home>\r\n"},
                       {4, "DATA\r\n"},
                       {5, "Subject: hello\r\n\r\nbody text\r\n.\r\n"},
                       {6, "QUIT\r\n"}});
  sched.run();
  const std::vector<Delivery> expected = {
      {80112, "220 hcm-mail ready\r\n"},
      {120128, "250 hello\r\n"},
      {160156, "250 sender OK\r\n"},
      {200182, "250 recipient OK\r\n"},
      {240198, "354 end with .\r\n"},
      {280243, "250 OK message accepted\r\n"},
      {320254, "221 bye\r\n"},
  };
  EXPECT_EQ(peer.received, expected);
  EXPECT_TRUE(peer.closed);
  EXPECT_EQ(server.mailbox_size("home"), 1u);
}

// A scripted POP client against MailServer: one RETR.
TEST_F(MailGoldenTest, PopServerRetr) {
  MailServer server(net, server_node->id());
  ASSERT_TRUE(server.start().is_ok());
  server.deliver(hello("body text"));
  ScriptedClient peer(net, client_node->id(), {server_node->id(), kPopPort},
                      {{1, "USER home\r\n"},
                       {2, "STAT\r\n"},
                       {3, "RETR 1\r\n"},
                       {9, "DELE 1\r\n"},
                       {10, "QUIT\r\n"}});
  sched.run();
  const std::vector<Delivery> expected = {
      {80111, "+OK hcm-pop ready\r\n"},
      {120136, "+OK mailbox selected\r\n"},
      {160145, "+OK 1\r\n"},
      {200167, "+OK message follows\r\n"},
      {200168, "From: tester\r\n"},
      {200169, "Subject: hello\r\n"},
      {200170, "\r\n"},
      {200171, "body text\r\n"},
      {200172, ".\r\n"},
      {240187, "+OK marked\r\n"},
      {280198, "+OK bye\r\n"},
  };
  EXPECT_EQ(peer.received, expected);
  EXPECT_TRUE(peer.closed);
  EXPECT_EQ(server.mailbox_size("home"), 0u);
}

// MailClient::fetch against a scripted POP server.
TEST_F(MailGoldenTest, PopClientRetr) {
  ScriptedServer peer(net, *server_node, kPopPort, "+OK ready\r\n",
                      {{"+OK mailbox selected\r\n"},
                       {"+OK 1\r\n"},
                       {"+OK message follows\r\n", "From: tester\r\n",
                        "Subject: hello\r\n", "\r\n", "body text\r\n",
                        ".\r\n"},
                       {"+OK marked\r\n"},
                       {"+OK bye\r\n"}});
  MailClient client(net, client_node->id(), server_node->id());
  std::optional<Result<std::vector<Message>>> got;
  client.fetch("home", [&](auto r) { got = std::move(r); });
  sched.run();
  ASSERT_TRUE(got.has_value() && got->is_ok());
  ASSERT_EQ(got->value().size(), 1u);
  const Message& m = got->value()[0];
  EXPECT_EQ(m.from, "tester");
  EXPECT_EQ(m.to, "home");
  EXPECT_EQ(m.subject, "hello");
  EXPECT_EQ(m.body, "body text");
  const std::vector<Delivery> expected = {
      {100112, "USER home\r\n"},
      {140133, "STAT\r\n"},
      {180144, "RETR 1\r\n"},
      {220171, "DELE 1\r\n"},
      {260184, "QUIT\r\n"},
  };
  EXPECT_EQ(peer.received, expected);
}

}  // namespace
}  // namespace hcm::mail
