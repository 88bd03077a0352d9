// Internet Mail service: an SMTP-like submission protocol and a
// POP3-like retrieval protocol over simulated TCP. The paper's
// prototype includes an Internet Mail PCM (Fig. 3); this substrate is
// what that PCM converts to and from.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace hcm::mail {

constexpr std::uint16_t kSmtpPort = 25;
constexpr std::uint16_t kPopPort = 110;

// Input bounds (docs/CORRECTNESS.md "Decoder bounds"). A command or
// reply line, CRLF included, is at most kMaxLineBytes (RFC 5321
// §4.5.3.1.4/.5). A DATA section is at most kMaxMessageBytes
// (common/value_codec.hpp) of data lines, a RETR message one line more
// for the "From:" the server prepends; body lines themselves are not
// capped. Past either bound the server answers 500/552 (-ERR for POP)
// and closes, the client fails the dialogue, and both count it in
// `mail.rejected`.
constexpr std::size_t kMaxLineBytes = 512;

struct Message {
  std::int64_t id = 0;
  std::string from;
  std::string to;       // mailbox name, e.g. "home" (local part)
  std::string subject;
  std::string body;
};

// Serves SMTP (submission) and POP (retrieval) on one node; stores
// mailboxes in memory.
class MailServer {
 public:
  MailServer(net::Network& net, net::NodeId node);
  ~MailServer();
  MailServer(const MailServer&) = delete;
  MailServer& operator=(const MailServer&) = delete;

  Status start();
  void stop();

  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] std::size_t mailbox_size(const std::string& mailbox) const;
  [[nodiscard]] std::uint64_t messages_accepted() const {
    return messages_accepted_;
  }

  // Direct (non-protocol) access for tests and local delivery hooks.
  void deliver(Message m);

 private:
  struct SmtpSession;
  struct PopSession;
  void on_smtp_accept(net::StreamPtr stream);
  void on_pop_accept(net::StreamPtr stream);
  void on_smtp_data(SmtpSession& s, BlockStream&& data);
  void on_pop_data(PopSession& s, BlockStream&& data);
  void smtp_line(SmtpSession& s, std::string_view line);
  void pop_line(PopSession& s, std::string_view line);
  void reject(const net::StreamPtr& stream, std::string_view reply);

  net::Network& net_;
  net::NodeId node_;
  bool started_ = false;
  // Live sessions, detached on stop() (their callbacks capture this).
  std::vector<std::weak_ptr<SmtpSession>> smtp_sessions_;
  std::vector<std::weak_ptr<PopSession>> pop_sessions_;
  std::map<std::string, std::vector<Message>> mailboxes_;
  std::int64_t next_id_ = 1;
  std::uint64_t messages_accepted_ = 0;
  obs::Counter& rejected_;  // mail.rejected
};

// Client: SMTP submission plus POP polling with a new-message callback.
class MailClient {
 public:
  MailClient(net::Network& net, net::NodeId node, net::NodeId server);
  ~MailClient();
  MailClient(const MailClient&) = delete;
  MailClient& operator=(const MailClient&) = delete;

  using DoneFn = std::function<void(const Status&)>;
  using MessagesFn = std::function<void(Result<std::vector<Message>>)>;

  // Sends one message through the SMTP dialogue. The message moves
  // into the dialogue; its body is rendered straight onto the wire,
  // dot-stuffed, so any body arrives byte-exact. CR or LF in from, to
  // or subject fails with kInvalidArgument before connecting.
  void send(Message m, DoneFn done);
  // Retrieves (and deletes) everything in `mailbox` via POP.
  void fetch(const std::string& mailbox, MessagesFn done);

  // Polls `mailbox` every `interval`; `on_message` fires per message.
  // This polling is exactly the asynchronous-notification workaround
  // whose cost §4.2 of the paper complains about.
  void watch(const std::string& mailbox, sim::Duration interval,
             std::function<void(const Message&)> on_message);
  void unwatch();

 private:
  struct SmtpDialogue;
  struct PopDialogue;
  void poll();
  net::Stream* track(net::StreamPtr stream);
  void untrack(net::Stream* stream);
  // Connects to `port` and runs `d` over the stream: `on_replies` reads
  // what arrives; a close before `d` finishes fails it.
  template <typename Dialogue>
  void dial(std::uint16_t port, std::shared_ptr<Dialogue> d,
            void (MailClient::*on_replies)(Dialogue&, net::Stream&),
            const char* closed_early);
  void smtp_replies(SmtpDialogue& d, net::Stream& s);
  void pop_replies(PopDialogue& d, net::Stream& s);
  // Closes and forgets a dialogue's stream; `rejected` counts it.
  void hang_up(net::Stream& s, bool rejected);

  net::Network& net_;
  net::NodeId node_;
  net::NodeId server_;
  // In-flight SMTP/POP dialogues. The client owns its streams; their
  // callbacks capture raw pointers back, so there is no stream<->
  // closure ownership cycle and destroying the client tears down
  // every open dialogue.
  std::map<net::Stream*, net::StreamPtr> active_;
  std::string watch_mailbox_;
  sim::Duration watch_interval_ = 0;
  std::function<void(const Message&)> watch_fn_;
  sim::EventId watch_event_ = 0;
  // Expires with the client: connect and fetch completions that can
  // outlive it (an unexport mid-poll) hold it weakly and bail out.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  obs::Counter& rejected_;  // mail.rejected
};

}  // namespace hcm::mail
