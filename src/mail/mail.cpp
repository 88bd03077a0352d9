#include "mail/mail.hpp"

#include <algorithm>
#include <charconv>

#include "common/strings.hpp"
#include "common/value_codec.hpp"

namespace hcm::mail {

namespace {

// One CRLF line reader for all four roles (SMTP and POP, client and
// server), in the idiom of http::MessageParser: each delivery is
// spliced into a BlockStream, the CRLF search resumes where the last
// one stopped (so a line trickled in over many segments is scanned
// once), command lines are read as views and body lines are copied
// straight into the message.
class LineReader {
 public:
  void feed(BlockStream&& data) { buf_.splice(std::move(data)); }

  // Length of the next complete line, CRLF excluded, or npos.
  [[nodiscard]] std::size_t next_line() {
    const std::size_t eol = buf_.find("\r\n", scan_);
    // A CR at the very end may still pair with the next LF.
    if (eol == BlockStream::npos) scan_ = buf_.empty() ? 0 : buf_.size() - 1;
    return eol;
  }
  // next_line() for a command or reply line, or kTooLong once that
  // line, CRLF included, cannot fit in kMaxLineBytes.
  static constexpr std::size_t kTooLong = BlockStream::npos - 1;
  [[nodiscard]] std::size_t next_command() {
    const std::size_t len = next_line();
    const bool too_long = len == BlockStream::npos
                              ? buf_.size() >= kMaxLineBytes
                              : len + 2 > kMaxLineBytes;
    return too_long ? kTooLong : len;
  }
  [[nodiscard]] std::size_t buffered() const { return buf_.size(); }
  // Offset of the first `pat` buffered, or npos.
  [[nodiscard]] std::size_t find(std::string_view pat) const {
    return buf_.find(pat);
  }
  // The first `len` bytes; valid until the next consume_line().
  [[nodiscard]] std::string_view view(std::size_t len) {
    return buf_.view(0, len, scratch_);
  }
  // Appends bytes [from, len) of the next line to `out`.
  void copy_to(std::string& out, std::size_t from, std::size_t len) const {
    const std::size_t at = out.size();
    out.resize(at + len - from);
    buf_.copy_to(out.data() + at, from, len - from);
  }
  // Drops a line of `len` bytes and its CRLF.
  void consume_line(std::size_t len) {
    buf_.consume(len + 2);
    scan_ = 0;
  }
  // Drops everything buffered; the seam scratch keeps its capacity.
  void clear() {
    buf_.clear();
    scan_ = 0;
  }

 private:
  BlockStream buf_;
  std::size_t scan_ = 0;
  std::string scratch_;  // backs a line spanning a block seam
};

// Progress through the data lines of a DATA section or RETR message.
struct DataState {
  bool in_headers = true;
  bool first_body_line = true;
  std::size_t bytes = 0;  // data lines consumed, CRLFs included
};

enum class DataStep { kMore, kDone, kTooLarge };

bool has_prefix_ci(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         iequals(s.substr(0, prefix.size()), prefix);
}

bool has_line_break(std::string_view s) {
  return s.find_first_of("\r\n") != std::string_view::npos;
}

// A RETR message may exceed the DATA bound by the "From:" line the
// server prepends (at most a MAIL FROM line), so every message SMTP
// accepted can be fetched.
constexpr std::size_t kMaxRetrBytes = kMaxMessageBytes + kMaxLineBytes;

// Reads data lines into `m` up to the terminating "." line (RFC 5321
// §4.5.2): a leading '.' is un-stuffed, the header block sets the
// subject (and, in a RETR message, the sender), and body lines are
// joined with CRLF, so exactly the CRLF before the terminator is
// dropped.
DataStep read_data(LineReader& in, DataState& st, Message& m, bool retr) {
  const std::size_t limit = retr ? kMaxRetrBytes : kMaxMessageBytes;
  while (true) {
    const std::size_t len = in.next_line();
    if (len == BlockStream::npos) {
      return st.bytes + in.buffered() > limit ? DataStep::kTooLarge
                                              : DataStep::kMore;
    }
    const std::string_view lead = in.view(std::min<std::size_t>(len, 1));
    const std::size_t skip = lead == "." ? 1 : 0;
    if (skip == 1 && len == 1) {
      in.consume_line(len);
      return DataStep::kDone;
    }
    st.bytes += len + 2;
    if (st.bytes > limit) return DataStep::kTooLarge;
    if (st.in_headers) {
      const std::string_view line = in.view(len).substr(skip);
      if (line.empty()) {
        st.in_headers = false;
      } else if (has_prefix_ci(line, "subject:")) {
        m.subject.assign(trim(line.substr(8)));
      } else if (retr && has_prefix_ci(line, "from:")) {
        m.from.assign(trim(line.substr(5)));
      }
    } else {
      if (st.first_body_line) {
        // When the terminator is already buffered (the section arrived
        // in one segment, as it does from MailClient), the body's wire
        // size bounds it: one allocation. Bytes pipelined behind the
        // terminator never size it.
        const std::size_t end = in.find("\r\n.\r\n");
        if (end != BlockStream::npos) m.body.reserve(std::min(end, limit));
      } else {
        m.body.append("\r\n");
      }
      st.first_body_line = false;
      in.copy_to(m.body, skip, len);
    }
    in.consume_line(len);
  }
}

// Appends `body` dot-stuffed: a '.' opening the body or following a
// CRLF is doubled, so no body line can read as the terminator.
void append_stuffed(BlockStream& out, std::string_view body) {
  if (!body.empty() && body.front() == '.') out.put('.');
  std::size_t from = 0;
  for (std::size_t at = body.find("\r\n."); at != std::string_view::npos;
       at = body.find("\r\n.", from)) {
    out.append(body.substr(from, at + 3 - from));
    out.put('.');
    from = at + 3;
  }
  out.append(body.substr(from));
}

// The SMTP DATA section: header block, stuffed body, terminator.
void render_data(BlockStream& out, const MessageView& m) {
  out.append("Subject: ");
  out.append(m.subject);
  out.append("\r\n\r\n");
  append_stuffed(out, m.body);
  out.append("\r\n.\r\n");
}

// Empties `m`, keeping its strings' capacity.
void clear_message(Message& m) {
  m.id = 0;
  m.from.clear();
  m.to.clear();
  m.subject.clear();
  m.body.clear();
}

// One send of `prefix` + `value` + CRLF; replies are single sends.
void send_line(const net::StreamPtr& stream, std::string_view prefix,
               std::string_view value = {}) {
  if (!stream || !stream->is_open()) return;
  BlockStream out;
  out.append(prefix);
  out.append(value);
  out.append("\r\n");
  stream->send(std::move(out));
}

void send_uint_line(net::Stream& s, std::string_view prefix,
                    std::uint64_t n) {
  char digits[24];
  auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), n);
  BlockStream out;
  out.append(prefix);
  out.append(digits, static_cast<std::size_t>(end - digits));
  out.append("\r\n");
  s.send(std::move(out));
}

std::string local_part(std::string_view addr) {
  const auto lt = addr.find('<');
  if (lt != std::string_view::npos) {
    addr = addr.substr(lt + 1, addr.find('>') - lt - 1);
  }
  return std::string(addr.substr(0, addr.find('@')));
}

}  // namespace

// One SMTP connection, recycled through a SlotPool.
struct MailServer::SmtpSession {
  net::StreamPtr stream;  // null while the slot is free
  LineReader in;
  Message pending;
  bool in_data = false;
  DataState data;

  void reset() {
    in.clear();
    clear_message(pending);
    in_data = false;
  }
};

struct MailServer::PopSession {
  net::StreamPtr stream;  // null while the slot is free
  LineReader in;
  std::string mailbox;
  std::vector<std::int64_t> deleted;
  // Past the AUTHORIZATION state: a command ran on the selected
  // mailbox, so USER may no longer switch it (RFC 1939).
  bool transaction = false;

  void reset() {
    in.clear();
    mailbox.clear();
    deleted.clear();
    transaction = false;
  }
};

MailServer::MailServer(net::Network& net, net::NodeId node)
    : net_(net),
      node_(node),
      rejected_(obs::shard_registry().counter("mail.rejected")) {}

MailServer::~MailServer() { stop(); }

Status MailServer::start() {
  net::Node* n = net_.node(node_);
  if (n == nullptr) return not_found("mail server: no such node");
  auto smtp = n->listen(kSmtpPort,
                        [this](net::StreamPtr s) { on_smtp_accept(s); });
  if (!smtp.is_ok()) return smtp;
  auto pop =
      n->listen(kPopPort, [this](net::StreamPtr s) { on_pop_accept(s); });
  if (!pop.is_ok()) {
    n->stop_listening(kSmtpPort);
    return pop;
  }
  started_ = true;
  return Status::ok();
}

void MailServer::stop() {
  if (!started_) return;
  if (net::Node* n = net_.node(node_)) {
    n->stop_listening(kSmtpPort);
    n->stop_listening(kPopPort);
  }
  started_ = false;
  auto detach = [](auto& sessions) {
    for (const auto& session : sessions.slots()) {
      if (session->stream) {
        session->stream->close();
        sessions.release(*session);
      }
    }
  };
  detach(smtp_sessions_);
  detach(pop_sessions_);
}

std::size_t MailServer::mailbox_size(const std::string& mailbox) const {
  auto it = mailboxes_.find(mailbox);
  return it == mailboxes_.end() ? 0 : it->second.size();
}

void MailServer::deliver(Message m) {
  m.id = next_id_++;
  ++messages_accepted_;
  mailboxes_[m.to].push_back(std::move(m));
}

void MailServer::reject(const net::StreamPtr& stream, std::string_view reply) {
  rejected_.inc();
  send_line(stream, reply);
  if (stream) stream->close();
}

void MailServer::on_smtp_accept(net::StreamPtr stream) {
  SmtpSession& s = smtp_sessions_.acquire();
  s.stream = std::move(stream);
  send_line(s.stream, "220 hcm-mail ready");
  s.stream->set_on_close([this, session = &s] {
    smtp_sessions_.release(*session);
  });
  s.stream->set_on_data([this, session = &s](BlockStream&& data) {
    on_smtp_data(*session, std::move(data));
  });
}

void MailServer::on_smtp_data(SmtpSession& s, BlockStream&& data) {
  s.in.feed(std::move(data));
  while (s.stream->is_open()) {
    if (s.in_data) {
      const DataStep step = read_data(s.in, s.data, s.pending, false);
      if (step == DataStep::kMore) return;
      if (step == DataStep::kTooLarge) {
        reject(s.stream, "552 message too large");
        break;
      }
      // The message moves into the mailbox: a session keeps no
      // body-sized buffer between connections.
      deliver(std::move(s.pending));
      clear_message(s.pending);
      s.in_data = false;
      send_line(s.stream, "250 OK message accepted");
      continue;
    }
    const std::size_t len = s.in.next_command();
    if (len == LineReader::kTooLong) {
      reject(s.stream, "500 line too long");
      break;
    }
    if (len == BlockStream::npos) return;
    smtp_line(s, s.in.view(len));
    s.in.consume_line(len);
  }
  // QUIT or a reject closed the connection.
  smtp_sessions_.release(s);
}

void MailServer::smtp_line(SmtpSession& s, std::string_view line) {
  if (has_prefix_ci(line, "HELO") || has_prefix_ci(line, "EHLO")) {
    send_line(s.stream, "250 hello");
  } else if (has_prefix_ci(line, "MAIL FROM:")) {
    s.pending.from = local_part(line.substr(10));
    send_line(s.stream, "250 sender OK");
  } else if (has_prefix_ci(line, "RCPT TO:")) {
    s.pending.to = local_part(line.substr(8));
    send_line(s.stream, "250 recipient OK");
  } else if (has_prefix_ci(line, "DATA")) {
    if (s.pending.to.empty()) {
      send_line(s.stream, "503 need RCPT first");
      return;
    }
    s.in_data = true;
    s.data = DataState{};
    send_line(s.stream, "354 end with .");
  } else if (has_prefix_ci(line, "QUIT")) {
    send_line(s.stream, "221 bye");
    if (s.stream) s.stream->close();
  } else {
    send_line(s.stream, "500 unrecognized command");
  }
}

void MailServer::on_pop_accept(net::StreamPtr stream) {
  PopSession& s = pop_sessions_.acquire();
  s.stream = std::move(stream);
  send_line(s.stream, "+OK hcm-pop ready");
  s.stream->set_on_close([this, session = &s] {
    pop_sessions_.release(*session);
  });
  s.stream->set_on_data([this, session = &s](BlockStream&& data) {
    on_pop_data(*session, std::move(data));
  });
}

void MailServer::on_pop_data(PopSession& s, BlockStream&& data) {
  s.in.feed(std::move(data));
  while (s.stream->is_open()) {
    const std::size_t len = s.in.next_command();
    if (len == LineReader::kTooLong) {
      reject(s.stream, "-ERR line too long");
      break;
    }
    if (len == BlockStream::npos) return;
    pop_line(s, s.in.view(len));
    s.in.consume_line(len);
  }
  // QUIT or a reject closed the connection.
  pop_sessions_.release(s);
}

void MailServer::pop_line(PopSession& s, std::string_view line) {
  if (has_prefix_ci(line, "USER ")) {
    // A second USER after a DELE would leave that mark to be committed
    // to whichever mailbox QUIT finds.
    if (s.transaction) {
      send_line(s.stream, "-ERR USER only in AUTHORIZATION state");
      return;
    }
    s.mailbox.assign(trim(line.substr(5)));
    send_line(s.stream, "+OK mailbox selected");
    return;
  }
  if (s.mailbox.empty()) {
    send_line(s.stream, "-ERR USER first");
    return;
  }
  s.transaction = true;
  // A mailbox nothing was delivered to reads as empty. Looking it up
  // must not create it: a peer cycling made-up USER names would grow
  // the map without bound.
  auto it = mailboxes_.find(s.mailbox);
  std::vector<Message>* box = it == mailboxes_.end() ? nullptr : &it->second;
  const std::size_t count = box == nullptr ? 0 : box->size();
  if (has_prefix_ci(line, "STAT")) {
    send_uint_line(*s.stream, "+OK ", count);
  } else if (has_prefix_ci(line, "RETR ")) {
    auto idx = parse_uint(trim(line.substr(5)));
    if (idx < 1 || static_cast<std::size_t>(idx) > count) {
      send_line(s.stream, "-ERR no such message");
      return;
    }
    // One send per header line, the stuffed body and the terminator:
    // the segment boundaries peers (and the backbone) have always seen.
    const Message& m = (*box)[static_cast<std::size_t>(idx - 1)];
    send_line(s.stream, "+OK message follows");
    send_line(s.stream, "From: ", m.from);
    send_line(s.stream, "Subject: ", m.subject);
    send_line(s.stream, "");
    BlockStream body;
    append_stuffed(body, m.body);
    body.append("\r\n");
    s.stream->send(std::move(body));
    send_line(s.stream, ".");
  } else if (has_prefix_ci(line, "DELE ")) {
    auto idx = parse_uint(trim(line.substr(5)));
    if (idx < 1 || static_cast<std::size_t>(idx) > count) {
      send_line(s.stream, "-ERR no such message");
      return;
    }
    s.deleted.push_back((*box)[static_cast<std::size_t>(idx - 1)].id);
    send_line(s.stream, "+OK marked");
  } else if (has_prefix_ci(line, "QUIT")) {
    // Commit deletions, all marked in this mailbox.
    for (auto id : s.deleted) {
      if (box == nullptr) break;
      std::erase_if(*box, [id](const Message& m) { return m.id == id; });
    }
    send_line(s.stream, "+OK bye");
    s.stream->close();
  } else {
    send_line(s.stream, "-ERR unrecognized command");
  }
}

// --- Client -------------------------------------------------------------

// One SMTP submission: the addresses, the DATA section rendered by
// send(), the stage reached and the completion. Recycled through a
// SlotPool; reset() leaves `done` for the finish() that follows it.
struct MailClient::SmtpDialogue {
  static constexpr std::uint16_t kPort = kSmtpPort;
  static constexpr const char* kClosedEarly = "SMTP connection closed early";
  static constexpr auto kReplies = &MailClient::smtp_replies;
  static constexpr auto kPool = &MailClient::smtp_dialogues_;

  MailClient* client = nullptr;
  net::StreamPtr stream;  // set once connected, null while free
  LineReader in;
  int stage = 0;
  std::string from;
  std::string to;
  BlockStream data;
  DoneFn done;

  void reset() {
    in.clear();
    stage = 0;
    from.clear();
    to.clear();
    data.clear();
  }

  // Runs the completion once. It is moved out first: it may start the
  // next dialogue in this slot or destroy the client, so nothing may
  // touch the dialogue after it.
  void finish(const Status& s) {
    if (!done) return;
    const DoneFn fn = std::move(done);
    fn(s);
  }
};

// One POP retrieval: every message is read into `msg` and moved out.
struct MailClient::PopDialogue {
  static constexpr std::uint16_t kPort = kPopPort;
  static constexpr const char* kClosedEarly = "POP connection closed early";
  static constexpr auto kReplies = &MailClient::pop_replies;
  static constexpr auto kPool = &MailClient::pop_dialogues_;

  MailClient* client = nullptr;
  net::StreamPtr stream;  // set once connected, null while free
  LineReader in;
  int stage = 0;
  std::string mailbox;
  long long total = 0;
  long long current = 0;
  bool in_message = false;
  DataState data;
  Message msg;
  std::vector<Message> out;
  MessagesFn done;

  void reset() {
    in.clear();
    stage = 0;
    mailbox.clear();
    total = 0;
    current = 0;
    in_message = false;
    clear_message(msg);
    out.clear();
  }

  // As SmtpDialogue::finish.
  void finish(Result<std::vector<Message>> r) {
    if (!done) return;
    const MessagesFn fn = std::move(done);
    fn(std::move(r));
  }
};

MailClient::MailClient(net::Network& net, net::NodeId node,
                       net::NodeId server)
    : net_(net),
      node_(node),
      server_(server),
      rejected_(obs::shard_registry().counter("mail.rejected")) {}

MailClient::~MailClient() {
  unwatch();
  auto close_all = [](const auto& dialogues) {
    for (const auto& d : dialogues.slots()) {
      if (d->stream) d->stream->close();
    }
  };
  close_all(smtp_dialogues_);
  close_all(pop_dialogues_);
}

template <typename Dialogue>
void MailClient::track(Dialogue& d, net::StreamPtr stream) {
  if (!stream->is_open()) {
    // Closed by the server or reset by a route failure before this
    // connect callback arrived (a cross-shard handshake delivers it
    // rtt/2 after the accept). The dialogue ends as that close would
    // have ended it, and a dead stream gets no handlers.
    untrack(d);
    d.finish(unavailable(Dialogue::kClosedEarly));
    return;
  }
  d.stream = std::move(stream);
  d.stream->set_on_close([this, dialogue = &d] {
    untrack(*dialogue);
    dialogue->finish(unavailable(Dialogue::kClosedEarly));
  });
  d.stream->set_on_data([this, dialogue = &d](BlockStream&& data) {
    dialogue->in.feed(std::move(data));
    (this->*Dialogue::kReplies)(*dialogue);
  });
}

template <typename Dialogue>
void MailClient::untrack(Dialogue& d) {
  (this->*Dialogue::kPool).release(d);
}

template <typename Dialogue, typename Outcome>
void MailClient::hang_up(Dialogue& d, Outcome&& outcome, bool rejected) {
  if (rejected) rejected_.inc();
  const net::StreamPtr stream = std::move(d.stream);
  untrack(d);
  // The completion runs before the close is scheduled, as it always
  // has. It may destroy the client, so only the local ref is used after.
  d.finish(std::forward<Outcome>(outcome));
  stream->close();
}

template <typename Dialogue>
void MailClient::dial(Dialogue& d) {
  d.client = this;
  // The callback holds its dialogue by a weak_ptr sharing alive_'s
  // count (no allocation): the slot lives exactly as long as the
  // client, so the pointer is good while alive_ is.
  net_.connect(node_, {server_, Dialogue::kPort},
               [slot = std::weak_ptr<Dialogue>(
                    std::shared_ptr<Dialogue>(alive_, &d))](
                   Result<net::StreamPtr> r) {
                 Dialogue* dialogue = slot.lock().get();
                 if (dialogue == nullptr) {  // client destroyed meanwhile
                   if (r.is_ok()) r.value()->close();
                   return;
                 }
                 MailClient& client = *dialogue->client;
                 if (!r.is_ok()) {
                   client.untrack(*dialogue);
                   dialogue->finish(r.status());
                   return;
                 }
                 client.track(*dialogue, std::move(r).take());
               });
}

void MailClient::send(const MessageView& m, DoneFn done) {
  if (has_line_break(m.from) || has_line_break(m.to) ||
      has_line_break(m.subject)) {
    net_.scheduler().after(0, [done = std::move(done)] {
      done(invalid_argument("mail: CR or LF in from, to or subject"));
    });
    return;
  }
  SmtpDialogue& d = smtp_dialogues_.acquire();
  d.from.assign(m.from);
  d.to.assign(m.to);
  render_data(d.data, m);
  d.done = std::move(done);
  dial(d);
}

void MailClient::smtp_replies(SmtpDialogue& d) {
  net::Stream& s = *d.stream;
  while (s.is_open()) {
    const std::size_t len = d.in.next_command();
    if (len == LineReader::kTooLong) {
      hang_up(d, protocol_error("SMTP reply line too long"), true);
      return;
    }
    if (len == BlockStream::npos) return;
    const std::string_view line = d.in.view(len);
    if (line.empty() || (line[0] != '2' && line[0] != '3')) {
      hang_up(d, protocol_error("SMTP rejected: " + std::string(line)),
              false);
      return;
    }
    d.in.consume_line(len);
    BlockStream out;
    switch (d.stage++) {
      case 0:  // greeting
        out.append("HELO hcm\r\n");
        break;
      case 1:
        out.append("MAIL FROM:<");
        out.append(d.from);
        out.append(">\r\n");
        break;
      case 2:
        out.append("RCPT TO:<");
        out.append(d.to);
        out.append(">\r\n");
        break;
      case 3:
        out.append("DATA\r\n");
        break;
      case 4:
        out = std::move(d.data);
        break;
      case 5:
        out.append("QUIT\r\n");
        s.send(std::move(out));
        // Should the completion destroy the client, that closes `s`
        // (which lives until the next tick), so the loop ends without
        // touching `d`.
        d.finish(Status::ok());
        continue;
      default:  // the 221 reply; the completion already ran
        hang_up(d, Status::ok(), false);
        return;
    }
    s.send(std::move(out));
  }
}

void MailClient::fetch(const std::string& mailbox, MessagesFn done) {
  if (has_line_break(mailbox)) {
    net_.scheduler().after(0, [done = std::move(done)] {
      done(invalid_argument("mail: CR or LF in mailbox"));
    });
    return;
  }
  PopDialogue& d = pop_dialogues_.acquire();
  d.mailbox.assign(mailbox);
  d.done = std::move(done);
  dial(d);
}

void MailClient::pop_replies(PopDialogue& d) {
  net::Stream& s = *d.stream;
  while (s.is_open()) {
    if (d.in_message) {
      const DataStep step = read_data(d.in, d.data, d.msg, true);
      if (step == DataStep::kMore) return;
      if (step == DataStep::kTooLarge) {
        hang_up(d, protocol_error("POP message too large"), true);
        return;
      }
      d.out.push_back(std::move(d.msg));
      d.in_message = false;
      d.stage = 4;
      send_uint_line(s, "DELE ", static_cast<std::uint64_t>(d.current));
      continue;
    }
    const std::size_t len = d.in.next_command();
    if (len == LineReader::kTooLong) {
      hang_up(d, protocol_error("POP reply line too long"), true);
      return;
    }
    if (len == BlockStream::npos) return;
    const std::string_view line = d.in.view(len);
    if (!starts_with(line, "+OK")) {
      hang_up(d, protocol_error("POP error: " + std::string(line)), false);
      return;
    }
    // The STAT count, read before the line is consumed.
    const long long count = parse_uint(trim(line.substr(3)));
    d.in.consume_line(len);
    BlockStream out;
    switch (d.stage) {
      case 0:  // greeting
        d.stage = 1;
        out.append("USER ");
        out.append(d.mailbox);
        out.append("\r\n");
        s.send(std::move(out));
        break;
      case 1:  // USER ok
        d.stage = 2;
        out.append("STAT\r\n");
        s.send(std::move(out));
        break;
      case 2:  // STAT reply: "+OK n"
        d.total = count;
        if (d.total <= 0) {
          d.stage = 5;
          out.append("QUIT\r\n");
          s.send(std::move(out));
        } else {
          d.current = 1;
          d.stage = 3;
          send_uint_line(s, "RETR ", 1);
        }
        break;
      case 3:  // RETR ok: message lines follow until "."
        d.in_message = true;
        d.data = DataState{};
        d.msg = Message{};
        d.msg.to = d.mailbox;
        break;
      case 4:  // DELE ok -> next message or quit
        if (d.current < d.total) {
          ++d.current;
          d.stage = 3;
          send_uint_line(s, "RETR ", static_cast<std::uint64_t>(d.current));
        } else {
          d.stage = 5;
          out.append("QUIT\r\n");
          s.send(std::move(out));
        }
        break;
      case 5:  // QUIT ok
        hang_up(d, Result<std::vector<Message>>(std::move(d.out)), false);
        return;
      default:
        break;
    }
  }
}

void MailClient::watch(const std::string& mailbox, sim::Duration interval,
                       std::function<void(const Message&)> on_message) {
  watch_mailbox_ = mailbox;
  watch_interval_ = interval;
  watch_fn_ = std::move(on_message);
  watch_event_ = net_.scheduler().after(interval, [this] { poll(); });
}

void MailClient::unwatch() {
  if (watch_event_ != 0) {
    net_.scheduler().cancel(watch_event_);
    watch_event_ = 0;
  }
  watch_fn_ = nullptr;
}

void MailClient::poll() {
  watch_event_ = 0;
  // A watcher may be destroyed mid-fetch (unexport); its completion then
  // must neither deliver nor re-arm.
  fetch(watch_mailbox_, [this, alive = std::weak_ptr<bool>(alive_)](
                            Result<std::vector<Message>> r) {
    if (alive.expired()) return;
    if (r.is_ok() && watch_fn_) {
      for (const auto& m : r.value()) {
        watch_fn_(m);
        if (alive.expired()) return;
      }
    }
    if (watch_fn_) {
      watch_event_ = net_.scheduler().after(
          watch_interval_, [this, alive] {
            if (!alive.expired()) poll();
          });
    }
  });
}

}  // namespace hcm::mail
