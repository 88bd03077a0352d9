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

#include "common/inline_fn.hpp"
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

// What MailClient::send reads. The views need only outlive the call:
// send() copies the addresses and renders the DATA section into pooled
// blocks before it returns.
struct MessageView {
  MessageView(std::string_view from_addr, std::string_view to_addr,
              std::string_view subject_line, std::string_view body_text)
      : from(from_addr), to(to_addr), subject(subject_line), body(body_text) {}
  MessageView(const Message& m)  // NOLINT(google-explicit-constructor)
      : MessageView(m.from, m.to, m.subject, m.body) {}

  std::string_view from;
  std::string_view to;
  std::string_view subject;
  std::string_view body;
};

// Per-connection state recycled across connections: when its connection
// ends a slot drops its stream, is reset() and goes back on the free
// list, its buffers keeping their capacity for the next one. Slots live
// as long as the pool, so stream handlers hold plain pointers to them.
template <typename Slot>
class SlotPool {
 public:
  Slot& acquire() {
    if (free_.empty()) {
      slots_.push_back(std::make_unique<Slot>());
      free_.reserve(slots_.size());  // release() never grows it
      return *slots_.back();
    }
    Slot& slot = *free_.back();
    free_.pop_back();
    return slot;
  }
  void release(Slot& slot) {
    slot.stream = nullptr;
    slot.reset();
    free_.push_back(&slot);
  }
  // Every slot, in use or free.
  [[nodiscard]] const std::vector<std::unique_ptr<Slot>>& slots() const {
    return slots_;
  }

 private:
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> free_;
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

  [[nodiscard]] std::size_t mailbox_size(const std::string& mailbox) const;
  // Mailboxes that exist: those something was ever delivered to.
  [[nodiscard]] std::size_t mailbox_count() const { return mailboxes_.size(); }
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
  // A session's stream is set while its connection is open; stop()
  // closes those (their handlers hold this and the session).
  SlotPool<SmtpSession> smtp_sessions_;
  SlotPool<PopSession> pop_sessions_;
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

  // Inline room for a completion that captures an adapter's result
  // callback (core::InvokeResultFn, 208 bytes).
  static constexpr std::size_t kDoneInline = 208;
  using DoneFn = SmallFn<void(const Status&), kDoneInline>;
  using MessagesFn = SmallFn<void(Result<std::vector<Message>>)>;

  // Sends one message through the SMTP dialogue. The DATA section is
  // rendered from `m` straight into pooled blocks, the body dot-stuffed
  // so any body arrives byte-exact. CR or LF in from, to or subject
  // fails with kInvalidArgument before connecting.
  void send(const MessageView& m, DoneFn done);
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
  // Connects to the dialogue's port and runs `d` over the stream; a
  // close before `d` finishes fails it.
  template <typename Dialogue>
  void dial(Dialogue& d);
  // Hands the connected stream to `d` and installs its handlers.
  template <typename Dialogue>
  void track(Dialogue& d, net::StreamPtr stream);
  // Returns `d` to its pool; the caller finishes it last.
  template <typename Dialogue>
  void untrack(Dialogue& d);
  void smtp_replies(SmtpDialogue& d);
  void pop_replies(PopDialogue& d);
  // Forgets a dialogue, finishes it with `outcome` (a no-op once it
  // finished) and closes its stream; `rejected` counts it.
  template <typename Dialogue, typename Outcome>
  void hang_up(Dialogue& d, Outcome&& outcome, bool rejected);

  net::Network& net_;
  net::NodeId node_;
  net::NodeId server_;
  // SMTP/POP dialogues. The client owns their streams; the streams'
  // callbacks capture raw pointers back, so there is no stream<->
  // closure ownership cycle and destroying the client tears down
  // every open dialogue.
  SlotPool<SmtpDialogue> smtp_dialogues_;
  SlotPool<PopDialogue> pop_dialogues_;
  std::string watch_mailbox_;
  sim::Duration watch_interval_ = 0;
  std::function<void(const Message&)> watch_fn_;
  sim::EventId watch_event_ = 0;
  // Expires with the client: connect and fetch completions that can
  // outlive it (an unexport mid-poll) hold it weakly and bail out. A
  // pending connect holds its dialogue through a weak_ptr that shares
  // this token.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  obs::Counter& rejected_;  // mail.rejected
};

}  // namespace hcm::mail
