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
      if (!st.first_body_line) m.body.append("\r\n");
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
void render_data(BlockStream& out, const Message& m) {
  out.append("Subject: ");
  out.append(m.subject);
  out.append("\r\n\r\n");
  append_stuffed(out, m.body);
  out.append("\r\n.\r\n");
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

struct MailServer::SmtpSession {
  net::StreamPtr stream;
  LineReader in;
  Message pending;
  bool in_data = false;
  DataState data;
};

struct MailServer::PopSession {
  net::StreamPtr stream;
  LineReader in;
  std::string mailbox;
  std::vector<std::int64_t> deleted;
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
    for (auto& weak : sessions) {
      if (auto session = weak.lock(); session && session->stream) {
        session->stream->set_on_data(nullptr);
        session->stream->close();
        session->stream = nullptr;
      }
    }
    sessions.clear();
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
  auto session = std::make_shared<SmtpSession>();
  session->stream = stream;
  std::erase_if(smtp_sessions_, [](const std::weak_ptr<SmtpSession>& w) {
    return w.expired();
  });
  smtp_sessions_.push_back(session);
  send_line(stream, "220 hcm-mail ready");
  stream->set_on_close([session] { session->stream = nullptr; });
  stream->set_on_data([this, session](BlockStream&& data) {
    on_smtp_data(*session, std::move(data));
  });
}

void MailServer::on_smtp_data(SmtpSession& s, BlockStream&& data) {
  s.in.feed(std::move(data));
  while (s.stream && s.stream->is_open()) {
    if (s.in_data) {
      const DataStep step = read_data(s.in, s.data, s.pending, false);
      if (step == DataStep::kMore) return;
      if (step == DataStep::kTooLarge) {
        reject(s.stream, "552 message too large");
        return;
      }
      deliver(std::move(s.pending));
      s.pending = Message{};
      s.in_data = false;
      send_line(s.stream, "250 OK message accepted");
      continue;
    }
    const std::size_t len = s.in.next_command();
    if (len == LineReader::kTooLong) {
      reject(s.stream, "500 line too long");
      return;
    }
    if (len == BlockStream::npos) return;
    smtp_line(s, s.in.view(len));
    s.in.consume_line(len);
  }
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
  auto session = std::make_shared<PopSession>();
  session->stream = stream;
  std::erase_if(pop_sessions_, [](const std::weak_ptr<PopSession>& w) {
    return w.expired();
  });
  pop_sessions_.push_back(session);
  send_line(stream, "+OK hcm-pop ready");
  stream->set_on_close([session] { session->stream = nullptr; });
  stream->set_on_data([this, session](BlockStream&& data) {
    on_pop_data(*session, std::move(data));
  });
}

void MailServer::on_pop_data(PopSession& s, BlockStream&& data) {
  s.in.feed(std::move(data));
  while (s.stream && s.stream->is_open()) {
    const std::size_t len = s.in.next_command();
    if (len == LineReader::kTooLong) {
      reject(s.stream, "-ERR line too long");
      return;
    }
    if (len == BlockStream::npos) return;
    pop_line(s, s.in.view(len));
    s.in.consume_line(len);
  }
}

void MailServer::pop_line(PopSession& s, std::string_view line) {
  if (has_prefix_ci(line, "USER ")) {
    s.mailbox.assign(trim(line.substr(5)));
    send_line(s.stream, "+OK mailbox selected");
    return;
  }
  if (s.mailbox.empty()) {
    send_line(s.stream, "-ERR USER first");
    return;
  }
  auto& box = mailboxes_[s.mailbox];
  if (has_prefix_ci(line, "STAT")) {
    send_uint_line(*s.stream, "+OK ", box.size());
  } else if (has_prefix_ci(line, "RETR ")) {
    auto idx = parse_uint(trim(line.substr(5)));
    if (idx < 1 || static_cast<std::size_t>(idx) > box.size()) {
      send_line(s.stream, "-ERR no such message");
      return;
    }
    // One send per header line, the stuffed body and the terminator:
    // the segment boundaries peers (and the backbone) have always seen.
    const Message& m = box[static_cast<std::size_t>(idx - 1)];
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
    if (idx < 1 || static_cast<std::size_t>(idx) > box.size()) {
      send_line(s.stream, "-ERR no such message");
      return;
    }
    s.deleted.push_back(box[static_cast<std::size_t>(idx - 1)].id);
    send_line(s.stream, "+OK marked");
  } else if (has_prefix_ci(line, "QUIT")) {
    // Commit deletions.
    for (auto id : s.deleted) {
      std::erase_if(box, [id](const Message& m) { return m.id == id; });
    }
    send_line(s.stream, "+OK bye");
    s.stream->close();
  } else {
    send_line(s.stream, "-ERR unrecognized command");
  }
}

// --- Client -------------------------------------------------------------

// One SMTP submission: the moved message, the stage reached and the
// completion, shared by the dialogue's connect/data/close callbacks.
struct MailClient::SmtpDialogue {
  Message m;
  DoneFn done;
  LineReader in;
  int stage = 0;
  bool finished = false;

  void finish(const Status& s) {
    if (finished) return;
    finished = true;
    done(s);
  }
};

// One POP retrieval: every message is read into `msg` and moved out.
struct MailClient::PopDialogue {
  std::string mailbox;
  MessagesFn done;
  LineReader in;
  int stage = 0;
  long long total = 0;
  long long current = 0;
  bool in_message = false;
  DataState data;
  Message msg;
  std::vector<Message> out;
  bool finished = false;

  void finish(Result<std::vector<Message>> r) {
    if (finished) return;
    finished = true;
    done(std::move(r));
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
  for (auto& [raw, stream] : active_) stream->close();
  active_.clear();
}

net::Stream* MailClient::track(net::StreamPtr stream) {
  net::Stream* raw = stream.get();
  active_[raw] = std::move(stream);
  return raw;
}

void MailClient::untrack(net::Stream* stream) { active_.erase(stream); }

void MailClient::hang_up(net::Stream& s, bool rejected) {
  if (rejected) rejected_.inc();
  s.close();
  untrack(&s);
}

template <typename Dialogue>
void MailClient::dial(std::uint16_t port, std::shared_ptr<Dialogue> d,
                      void (MailClient::*on_replies)(Dialogue&, net::Stream&),
                      const char* closed_early) {
  net_.connect(node_, {server_, port},
               [this, alive = std::weak_ptr<bool>(alive_), d, on_replies,
                closed_early](Result<net::StreamPtr> r) {
    if (alive.expired()) {  // client destroyed while connecting
      if (r.is_ok()) r.value()->close();
      return;
    }
    if (!r.is_ok()) {
      d->finish(r.status());
      return;
    }
    net::Stream* raw = track(r.value());  // owned by active_
    raw->set_on_close([this, d, raw, closed_early] {
      d->finish(unavailable(closed_early));
      untrack(raw);
    });
    raw->set_on_data([this, d, raw, on_replies](BlockStream&& data) {
      d->in.feed(std::move(data));
      (this->*on_replies)(*d, *raw);
    });
  });
}

void MailClient::send(Message m, DoneFn done) {
  if (has_line_break(m.from) || has_line_break(m.to) ||
      has_line_break(m.subject)) {
    net_.scheduler().after(0, [done = std::move(done)] {
      done(invalid_argument("mail: CR or LF in from, to or subject"));
    });
    return;
  }
  auto d = std::make_shared<SmtpDialogue>();
  d->m = std::move(m);
  d->done = std::move(done);
  dial(kSmtpPort, std::move(d), &MailClient::smtp_replies,
       "SMTP connection closed early");
}

void MailClient::smtp_replies(SmtpDialogue& d, net::Stream& s) {
  while (s.is_open()) {
    const std::size_t len = d.in.next_command();
    if (len == LineReader::kTooLong) {
      d.finish(protocol_error("SMTP reply line too long"));
      hang_up(s, true);
      return;
    }
    if (len == BlockStream::npos) return;
    const std::string_view line = d.in.view(len);
    if (line.empty() || (line[0] != '2' && line[0] != '3')) {
      d.finish(protocol_error("SMTP rejected: " + std::string(line)));
      hang_up(s, false);
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
        out.append(d.m.from);
        out.append(">\r\n");
        break;
      case 2:
        out.append("RCPT TO:<");
        out.append(d.m.to);
        out.append(">\r\n");
        break;
      case 3:
        out.append("DATA\r\n");
        break;
      case 4:
        render_data(out, d.m);
        break;
      case 5:
        out.append("QUIT\r\n");
        s.send(std::move(out));
        d.finish(Status::ok());
        continue;
      default:
        hang_up(s, false);
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
  auto d = std::make_shared<PopDialogue>();
  d->mailbox = mailbox;
  d->done = std::move(done);
  dial(kPopPort, std::move(d), &MailClient::pop_replies,
       "POP connection closed early");
}

void MailClient::pop_replies(PopDialogue& d, net::Stream& s) {
  while (s.is_open()) {
    if (d.in_message) {
      const DataStep step = read_data(d.in, d.data, d.msg, true);
      if (step == DataStep::kMore) return;
      if (step == DataStep::kTooLarge) {
        d.finish(protocol_error("POP message too large"));
        hang_up(s, true);
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
      d.finish(protocol_error("POP reply line too long"));
      hang_up(s, true);
      return;
    }
    if (len == BlockStream::npos) return;
    const std::string_view line = d.in.view(len);
    if (!starts_with(line, "+OK")) {
      d.finish(protocol_error("POP error: " + std::string(line)));
      hang_up(s, false);
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
        d.finish(std::move(d.out));
        hang_up(s, false);
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
