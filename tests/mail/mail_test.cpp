#include "mail/mail.hpp"

#include <gtest/gtest.h>

#include "bench/bench_util.hpp"
#include "common/value_codec.hpp"
#include "mail_peer.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded_kernel.hpp"

namespace hcm::mail {
namespace {

using mailtest::ScriptedClient;
using mailtest::ScriptedServer;

std::uint64_t rejected_count() {
  const obs::Counter* c = obs::Registry::global().find_counter("mail.rejected");
  return c == nullptr ? 0 : c->value();
}

// The golden dialogues of golden_test.cpp as one byte stream each.
const std::string kSmtpDialogue =
    "HELO hcm\r\nMAIL FROM:<tester>\r\nRCPT TO:<home>\r\nDATA\r\n"
    "Subject: hello\r\n\r\nbody text\r\n.\r\nQUIT\r\n";
const std::string kSmtpReplies =
    "220 hcm-mail ready\r\n250 hello\r\n250 sender OK\r\n"
    "250 recipient OK\r\n354 end with .\r\n250 OK message accepted\r\n"
    "221 bye\r\n";
const std::string kPopDialogue =
    "USER home\r\nSTAT\r\nRETR 1\r\nDELE 1\r\nQUIT\r\n";
const std::string kPopReplies =
    "+OK hcm-pop ready\r\n+OK mailbox selected\r\n+OK 1\r\n"
    "+OK message follows\r\nFrom: tester\r\nSubject: hello\r\n\r\n"
    "body text\r\n.\r\n+OK marked\r\n+OK bye\r\n";

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

  // The single message in `mailbox`, fetched over POP.
  std::string fetch_one_body(const std::string& mailbox) {
    auto got = fetch(mailbox);
    EXPECT_TRUE(got.is_ok()) << got.status().to_string();
    if (!got.is_ok() || got.value().size() != 1) {
      ADD_FAILURE() << "expected exactly one message";
      return {};
    }
    return got.value()[0].body;
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

// --- Allocations on a warm dialogue ------------------------------------------
// Sessions and dialogues are recycled and their handlers stored inline,
// so a warm dial allocates the two Streams Network::connect builds and,
// for a send, the body the server stores.

TEST_F(MailTest, WarmSendAllocationsStayPinned) {
  Message m;
  m.from = "tester";
  m.to = "home";
  m.subject = "s";
  for (int line = 0; line < 64; ++line) {  // 4 KB of 64-byte lines
    m.body += std::string(62, static_cast<char>('a' + line % 26)) + "\r\n";
  }
  int ok = 0;
  auto send_once = [&] {
    client->send(m, [&ok](const Status& s) { ok += s.is_ok() ? 1 : 0; });
    sched.run();
  };
  const int kWarm = 10;
  for (int i = 0; i < kWarm; ++i) send_once();
  EXPECT_TRUE(bench::alloc_hook_installed());
  const int kSends = 100;
  bench::AllocDelta delta;
  for (int i = 0; i < kSends; ++i) send_once();
  const double per_send = static_cast<double>(delta.allocs()) / kSends;
  EXPECT_EQ(ok, kWarm + kSends);
  EXPECT_EQ(server->mailbox_size("home"),
            static_cast<std::size_t>(kWarm + kSends));
  EXPECT_LT(per_send, 3.5) << per_send * kSends << " allocations";
}

TEST_F(MailTest, WarmPollAllocationsStayPinned) {
  const obs::Counter* connects = obs::Registry::global().find_counter(
      net.obs_scope() + ".stream_connects");
  ASSERT_NE(connects, nullptr);
  int seen = 0;
  client->watch("nobody", sim::seconds(1),
                [&seen](const Message&) { ++seen; });
  sched.run_until(sched.now() + sim::seconds(15));  // warm-up polls
  EXPECT_TRUE(bench::alloc_hook_installed());
  const std::uint64_t polls0 = connects->value();
  bench::AllocDelta delta;
  sched.run_until(sched.now() + sim::seconds(130));
  const std::uint64_t allocs = delta.allocs();
  const std::uint64_t polls = connects->value() - polls0;
  client->unwatch();
  ASSERT_GE(polls, 90u);
  EXPECT_EQ(seen, 0);
  const double per_poll = static_cast<double>(allocs) / polls;
  EXPECT_LT(per_poll, 2.5) << allocs << " allocations in " << polls
                           << " polls";
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

// --- Transparency (RFC 5321 §4.5.2) ---------------------------------------

TEST_F(MailTest, DotLineInBodyCannotInjectAMessage) {
  const std::string body =
      "hello\r\n.\r\nRCPT TO:<victim>\r\nDATA\r\nSubject: injected\r\n"
      "\r\nevil";
  ASSERT_TRUE(send("home", "s", body).is_ok());
  EXPECT_EQ(server->messages_accepted(), 1u);
  EXPECT_EQ(server->mailbox_size("victim"), 0u);
  EXPECT_EQ(fetch_one_body("home"), body);
}

TEST_F(MailTest, AnyBodyRoundTripsByteExactly) {
  const std::vector<std::string> bodies = {
      "",           ".",       "..",         "a\r\n.\r\nb",
      "a\n.\nb",     "x\r\n",   "\r\n",       "\r\n\r\n",
      ".\r\n.",      "a\r",     "\r\n.x",     "..\r\n..\r\n.",
      "line1\r\nline2", std::string(48 * 1024, 'z')};
  for (const auto& body : bodies) {
    SCOPED_TRACE(::testing::PrintToString(body.substr(0, 16)));
    ASSERT_TRUE(send("home", "s", body).is_ok());
    EXPECT_EQ(fetch_one_body("home"), body);
  }
}

TEST_F(MailTest, StoredDotLineAfterBareLfDoesNotWedgeTheMailbox) {
  Message m;
  m.from = "internal";
  m.to = "home";
  m.subject = "s";
  m.body = "a\n.\nb";
  server->deliver(m);
  EXPECT_EQ(fetch_one_body("home"), "a\n.\nb");
  EXPECT_EQ(server->mailbox_size("home"), 0u);
}

TEST_F(MailTest, LineBreaksInHeaderFieldsAreRejectedBeforeConnecting) {
  server->stop();
  ScriptedServer probe(net, *server_node, kSmtpPort, "220 ready\r\n", {});
  for (std::string Message::*field :
       {&Message::from, &Message::to, &Message::subject}) {
    for (const char* bad : {"a\rb", "a\nb", "a\r\nRCPT TO:<victim>"}) {
      Message m;
      m.from = "tester";
      m.to = "home";
      m.subject = "s";
      m.*field = bad;
      std::optional<Status> result;
      client->send(m, [&](const Status& s) { result = s; });
      sched.run();
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(result->code(), StatusCode::kInvalidArgument);
    }
  }
  std::optional<Result<std::vector<Message>>> fetched;
  client->fetch("home\r\nDELE 1", [&](auto r) { fetched = std::move(r); });
  sched.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(probe.stream, nullptr);  // nothing ever connected
}

// --- Bounded input ----------------------------------------------------------

TEST_F(MailTest, PopUserOfAnUnknownMailboxCreatesNone) {
  Message m;
  m.from = "tester";
  m.to = "home";
  m.subject = "s";
  server->deliver(m);
  // Replies as for an empty mailbox; a DELE marked under another USER
  // is not committed to the mailbox QUIT finds.
  ScriptedClient peer(net, client_node->id(), {server_node->id(), kPopPort},
                      {{1, "USER home\r\nDELE 1\r\nUSER ghost\r\nSTAT\r\n"
                           "RETR 1\r\nDELE 1\r\nQUIT\r\n"}});
  sched.run();
  EXPECT_EQ(peer.text(),
            "+OK hcm-pop ready\r\n+OK mailbox selected\r\n+OK marked\r\n"
            "+OK mailbox selected\r\n+OK 0\r\n-ERR no such message\r\n"
            "-ERR no such message\r\n+OK bye\r\n");
  EXPECT_EQ(server->mailbox_size("home"), 1u);

  // A peer cycling made-up names costs the server nothing per name.
  std::size_t replied = 0;
  net::StreamPtr stream;
  net.connect(client_node->id(), {server_node->id(), kPopPort},
              [&](Result<net::StreamPtr> r) { stream = std::move(r).take(); });
  sched.run();
  ASSERT_TRUE(stream);
  stream->set_on_data([&replied](BlockStream&& d) { replied += d.size(); });
  auto cycle = [&](char round) {
    BlockStream out;
    for (int i = 0; i < 256; ++i) {
      out.append("USER made-up-mailbox-");
      out.put(round);
      out.append(std::to_string(1000 + i));
      out.append("\r\nSTAT\r\n");
    }
    stream->send(std::move(out));
    sched.run();
  };
  cycle('a');  // warm: pooled blocks, the line reader's seam scratch
  const std::size_t warm_replied = replied;
  EXPECT_EQ(warm_replied,
            256 * (std::string("+OK mailbox selected\r\n+OK 0\r\n").size()) +
                std::string("+OK hcm-pop ready\r\n").size());
  bench::AllocDelta delta;
  cycle('b');
  EXPECT_LT(delta.allocs(), 32u);
  EXPECT_EQ(replied,
            2 * warm_replied - std::string("+OK hcm-pop ready\r\n").size());
  stream->close();
  sched.run();
}

TEST_F(MailTest, PipelinedBodiesAreSizedByThemselvesNotByTheSegment) {
  // Many tiny messages ahead of a large one, all in one segment: each
  // stored body is sized by its own bytes, never by what is buffered
  // behind it.
  std::string script = "HELO hcm\r\n";
  const int kTiny = 100;
  for (int i = 0; i < kTiny; ++i) {
    script += "MAIL FROM:<t>\r\nRCPT TO:<home>\r\nDATA\r\n"
              "Subject: s\r\n\r\nx\r\n.\r\n";
  }
  script += "MAIL FROM:<t>\r\nRCPT TO:<home>\r\nDATA\r\nSubject: big\r\n\r\n";
  for (int line = 0; line < 4096; ++line) {  // 256 KiB of 64-byte lines
    script += std::string(62, 'y') + "\r\n";
  }
  script += ".\r\nQUIT\r\n";
  auto run_script = [&] {
    std::map<std::size_t, std::string> after{{1, script}};
    bench::AllocDelta delta;
    ScriptedClient peer(net, client_node->id(),
                        {server_node->id(), kSmtpPort}, std::move(after));
    sched.run();
    EXPECT_TRUE(peer.closed);
    return delta.bytes();
  };
  // Warm: every reply is its own 16 KiB pool block, and all of them are
  // in flight at once; the second run finds them pooled.
  (void)run_script();
  EXPECT_TRUE(bench::alloc_hook_installed());
  const std::uint64_t bytes = run_script();
  EXPECT_EQ(server->mailbox_size("home"),
            static_cast<std::size_t>(2 * (kTiny + 1)));
  // The stored bodies take ~256 KiB; sizing every tiny body by the bytes
  // behind it would take ~25 MiB.
  EXPECT_LT(bytes, 1u << 20) << bytes << " heap bytes";
}

TEST(MailShardTest, ConnectCallbackForAClosedStreamEndsTheDialogue) {
  // Across shards the connect callback arrives rtt/2 after the accept.
  // A server whose greeting finds the route gone resets both ends 1 ms
  // later, so the client's end is already closed when the callback
  // runs. The dialogue fails once, as a close would have failed it.
  sim::ShardedKernel kernel(sim::ShardedKernelOptions{.shards = 2});
  net::Network net(kernel.shard(0));
  net.set_kernel(&kernel);
  net::Segment* eth = nullptr;
  net::Node* client_node = nullptr;
  net::Node* server_node = nullptr;
  kernel.run_as(0, [&] {
    eth = &net.add_ethernet("internet", sim::milliseconds(20), 10'000'000);
    client_node = &net.add_node("gateway");
    net.attach(*client_node, *eth);
  });
  kernel.run_as(1, [&] {
    server_node = &net.add_node("mail-host");
    net.attach(*server_node, *eth);
  });
  ASSERT_TRUE(net.cross_shard(client_node->id(), server_node->id()));
  kernel.set_lookahead(net.min_cross_shard_latency());
  for (const std::uint16_t port : {kSmtpPort, kPopPort}) {
    ASSERT_TRUE(server_node
                    ->listen(port,
                             [eth](net::StreamPtr s) {
                               eth->set_up(false);
                               mailtest::send_text(*s, "220 ready\r\n");
                             })
                    .is_ok());
  }

  // The precondition, seen through a raw connect.
  std::optional<bool> open_at_callback;
  kernel.run_as(0, [&] {
    net.connect(client_node->id(), {server_node->id(), kSmtpPort},
                [&](Result<net::StreamPtr> r) {
                  ASSERT_TRUE(r.is_ok());
                  open_at_callback = r.value()->is_open();
                });
  });
  kernel.run();
  ASSERT_TRUE(open_at_callback.has_value());
  EXPECT_FALSE(*open_at_callback);

  eth->set_up(true);
  std::vector<Status> sent;
  std::vector<Status> fetched;
  std::unique_ptr<MailClient> client;
  kernel.run_as(0, [&] {
    client = std::make_unique<MailClient>(net, client_node->id(),
                                          server_node->id());
    Message m;
    m.to = "home";
    client->send(m, [&sent](const Status& s) { sent.push_back(s); });
  });
  kernel.run();
  eth->set_up(true);
  kernel.run_as(0, [&] {
    client->fetch("home", [&fetched](Result<std::vector<Message>> r) {
      fetched.push_back(r.status());
    });
  });
  kernel.run();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].message(), "SMTP connection closed early");
  ASSERT_EQ(fetched.size(), 1u);
  EXPECT_EQ(fetched[0].message(), "POP connection closed early");
  kernel.run_as(0, [&] { client.reset(); });
}

TEST_F(MailTest, SmtpCommandWithoutCrlfIsCutOffAtTheLineCap) {
  const auto before = rejected_count();
  ScriptedClient peer(net, client_node->id(), {server_node->id(), kSmtpPort},
                      {{1, std::string(kMaxLineBytes, 'A')}});
  sched.run();
  EXPECT_EQ(peer.text(), "220 hcm-mail ready\r\n500 line too long\r\n");
  EXPECT_TRUE(peer.closed);
  EXPECT_EQ(rejected_count(), before + 1);
}

TEST_F(MailTest, SmtpCommandAtTheLineCapIsServed) {
  const auto before = rejected_count();
  // 510 octets + CRLF is the longest legal line; one more is rejected.
  ScriptedClient peer(
      net, client_node->id(), {server_node->id(), kSmtpPort},
      {{1, "NOOP" + std::string(kMaxLineBytes - 6, 'x') + "\r\n"},
       {2, "NOOP" + std::string(kMaxLineBytes - 5, 'x') + "\r\n"}});
  sched.run();
  EXPECT_EQ(peer.text(),
            "220 hcm-mail ready\r\n500 unrecognized command\r\n"
            "500 line too long\r\n");
  EXPECT_TRUE(peer.closed);
  EXPECT_EQ(rejected_count(), before + 1);
}

TEST_F(MailTest, PopCommandWithoutCrlfIsCutOffAtTheLineCap) {
  const auto before = rejected_count();
  ScriptedClient peer(net, client_node->id(), {server_node->id(), kPopPort},
                      {{1, std::string(4 * kMaxLineBytes, 'U')}});
  sched.run();
  EXPECT_EQ(peer.text(), "+OK hcm-pop ready\r\n-ERR line too long\r\n");
  EXPECT_TRUE(peer.closed);
  EXPECT_EQ(rejected_count(), before + 1);
}

TEST_F(MailTest, DataSectionIsCappedAtMaxMessageBytes) {
  const std::string head = "Subject: big\r\n\r\n";
  // Data lines, CRLFs included, exactly at the cap.
  const std::size_t at_cap = kMaxMessageBytes - head.size() - 2;
  const auto open_data = [&] {
    return std::map<std::size_t, std::string>{{1, "HELO hcm\r\n"},
                                              {2, "MAIL FROM:<t>\r\n"},
                                              {3, "RCPT TO:<home>\r\n"},
                                              {4, "DATA\r\n"}};
  };
  const std::string opened =
      "220 hcm-mail ready\r\n250 hello\r\n250 sender OK\r\n"
      "250 recipient OK\r\n354 end with .\r\n";
  const auto before = rejected_count();
  {  // One byte over, terminated.
    auto script = open_data();
    script[5] = head + std::string(at_cap + 1, 'b') + "\r\n.\r\n";
    ScriptedClient peer(net, client_node->id(),
                        {server_node->id(), kSmtpPort}, script);
    sched.run();
    EXPECT_EQ(peer.text(), opened + "552 message too large\r\n");
    EXPECT_TRUE(peer.closed);
  }
  {  // Past the cap with no CRLF at all.
    auto script = open_data();
    script[5] = std::string(kMaxMessageBytes + 1, 'c');
    ScriptedClient peer(net, client_node->id(),
                        {server_node->id(), kSmtpPort}, script);
    sched.run();
    EXPECT_EQ(peer.text(), opened + "552 message too large\r\n");
    EXPECT_TRUE(peer.closed);
  }
  EXPECT_EQ(rejected_count(), before + 2);
  EXPECT_EQ(server->messages_accepted(), 0u);
  {  // Exactly at the cap: accepted, and fetched back whole.
    auto script = open_data();
    script[5] = head + std::string(at_cap, 'a') + "\r\n.\r\n";
    script[6] = "QUIT\r\n";
    ScriptedClient peer(net, client_node->id(),
                        {server_node->id(), kSmtpPort}, script);
    sched.run();
    EXPECT_EQ(peer.text(),
              opened + "250 OK message accepted\r\n221 bye\r\n");
  }
  EXPECT_EQ(fetch_one_body("home").size(), at_cap);
  EXPECT_EQ(rejected_count(), before + 2);
}

TEST_F(MailTest, OverlongReplyLineFailsTheSend) {
  server->stop();
  const auto before = rejected_count();
  ScriptedServer peer(net, *server_node, kSmtpPort,
                      std::string(kMaxLineBytes, '2'), {});
  std::optional<Status> result;
  Message m;
  m.to = "home";
  client->send(m, [&](const Status& s) { result = s; });
  sched.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), StatusCode::kProtocolError);
  EXPECT_TRUE(peer.closed);
  EXPECT_EQ(rejected_count(), before + 1);
}

TEST_F(MailTest, OversizedRetrMessageFailsTheFetch) {
  server->stop();
  const auto before = rejected_count();
  ScriptedServer peer(
      net, *server_node, kPopPort, "+OK ready\r\n",
      {{"+OK\r\n"},
       {"+OK 1\r\n"},
       {"+OK message follows\r\n",
        "From: x\r\n\r\n" +
            std::string(kMaxMessageBytes + kMaxLineBytes, 'y')}});
  auto got = fetch("home");
  EXPECT_EQ(got.status().code(), StatusCode::kProtocolError);
  EXPECT_TRUE(peer.closed);
  EXPECT_EQ(rejected_count(), before + 1);
}

TEST_F(MailTest, PopStatWithoutCountEndsTheFetch) {
  server->stop();
  ScriptedServer peer(net, *server_node, kPopPort, "+OK\r\n",
                      {{"+OK\r\n"}, {"+OK\r\n"}, {"+OK bye\r\n"}});
  auto got = fetch("home");
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_TRUE(got.value().empty());
}

TEST_F(MailTest, FourMiBBodyTrickledInOneKiBSegments) {
  ScriptedClient peer(net, client_node->id(), {server_node->id(), kSmtpPort},
                      {{1, "HELO hcm\r\n"},
                       {2, "MAIL FROM:<t>\r\n"},
                       {3, "RCPT TO:<home>\r\n"},
                       {4, "DATA\r\n"}});
  sched.run();
  peer.send("Subject: big\r\n\r\n");
  const std::string chunk(1024, 'k');
  for (int i = 0; i < 4096; ++i) peer.send(chunk);
  peer.send("\r\n.\r\nQUIT\r\n");
  sched.run();
  EXPECT_TRUE(peer.closed);
  EXPECT_EQ(fetch_one_body("home"), std::string(4u << 20, 'k'));
}

TEST_F(MailTest, SmtpDialogueSplitByteByByte) {
  ScriptedClient peer(net, client_node->id(), {server_node->id(), kSmtpPort},
                      {});
  sched.run();
  for (char c : kSmtpDialogue) peer.send(std::string_view(&c, 1));
  sched.run();
  EXPECT_EQ(peer.text(), kSmtpReplies);
  EXPECT_EQ(fetch_one_body("home"), "body text");
}

TEST_F(MailTest, DialoguesPipelinedInOneSegment) {
  ScriptedClient smtp(net, client_node->id(), {server_node->id(), kSmtpPort},
                      {{0, kSmtpDialogue}});
  sched.run();
  EXPECT_EQ(smtp.text(), kSmtpReplies);
  ScriptedClient pop(net, client_node->id(), {server_node->id(), kPopPort},
                     {{0, kPopDialogue}});
  sched.run();
  EXPECT_EQ(pop.text(), kPopReplies);
  EXPECT_EQ(server->mailbox_size("home"), 0u);
}

TEST_F(MailTest, TruncatedSmtpDialogueNeverDeliversPartMail) {
  const std::size_t complete = kSmtpDialogue.find("\r\n.\r\n") + 5;
  std::uint64_t expected = 0;
  for (std::size_t k = 0; k <= kSmtpDialogue.size(); ++k) {
    SCOPED_TRACE(k);
    ScriptedClient peer(net, client_node->id(),
                        {server_node->id(), kSmtpPort},
                        {{0, kSmtpDialogue.substr(0, k)}});
    sched.run();
    if (peer.stream) peer.stream->close();
    sched.run();
    if (k >= complete) ++expected;
    EXPECT_EQ(server->messages_accepted(), expected);
  }
  EXPECT_EQ(server->mailbox_size("home"), expected);
}

TEST_F(MailTest, TruncatedSmtpRepliesFailTheSendOnce) {
  server->stop();
  const std::string accepted = "250 OK message accepted\r\n";
  const std::size_t ok_from = kSmtpReplies.find(accepted) + accepted.size();
  for (std::size_t k = 0; k <= kSmtpReplies.size(); ++k) {
    SCOPED_TRACE(k);
    ScriptedServer peer(net, *server_node, kSmtpPort,
                        kSmtpReplies.substr(0, k), {});
    peer.hang_up_after_greeting = true;
    int calls = 0;
    Status last;
    Message m;
    m.to = "home";
    client->send(m, [&](const Status& s) {
      ++calls;
      last = s;
    });
    sched.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(last.is_ok(), k >= ok_from);
    server_node->stop_listening(kSmtpPort);
  }
}

TEST_F(MailTest, TruncatedPopRepliesFailTheFetchOnce) {
  server->stop();
  for (std::size_t k = 0; k <= kPopReplies.size(); ++k) {
    SCOPED_TRACE(k);
    ScriptedServer peer(net, *server_node, kPopPort,
                        kPopReplies.substr(0, k), {});
    peer.hang_up_after_greeting = true;
    int calls = 0;
    bool ok = false;
    client->fetch("home", [&](Result<std::vector<Message>> r) {
      ++calls;
      ok = r.is_ok();
      if (ok) {
        ASSERT_EQ(r.value().size(), 1u);
        EXPECT_EQ(r.value()[0].body, "body text");
      }
    });
    sched.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(ok, k == kPopReplies.size());
    server_node->stop_listening(kPopPort);
  }
}

}  // namespace
}  // namespace hcm::mail
