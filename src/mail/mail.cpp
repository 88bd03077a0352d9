#include "mail/mail.hpp"

#include "common/strings.hpp"

namespace hcm::mail {

namespace {
// Line-based session plumbing shared by both protocols.
struct LineBuffer {
  std::string buf;
  // Appends data; returns complete lines (without CRLF).
  std::vector<std::string> feed(const BlockStream& data) {
    data.append_to(buf);
    std::vector<std::string> lines;
    std::size_t pos;
    while ((pos = buf.find("\r\n")) != std::string::npos) {
      lines.push_back(buf.substr(0, pos));
      buf.erase(0, pos + 2);
    }
    return lines;
  }
};

void reply(const net::StreamPtr& stream, const std::string& line) {
  if (stream && stream->is_open()) stream->send(to_bytes(line + "\r\n"));
}

std::string local_part(const std::string& addr) {
  auto lt = addr.find('<');
  std::string a = lt == std::string::npos
                      ? addr
                      : addr.substr(lt + 1, addr.find('>') - lt - 1);
  auto at = a.find('@');
  return at == std::string::npos ? a : a.substr(0, at);
}
}  // namespace

struct MailServer::SmtpSession {
  net::StreamPtr stream;
  LineBuffer lines;
  Message pending;
  bool in_data = false;
  std::string data_buf;
  bool have_subject = false;
};

struct MailServer::PopSession {
  net::StreamPtr stream;
  LineBuffer lines;
  std::string mailbox;
  std::vector<std::int64_t> deleted;
};

MailServer::MailServer(net::Network& net, net::NodeId node)
    : net_(net), node_(node) {}

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

void MailServer::on_smtp_accept(net::StreamPtr stream) {
  auto session = std::make_shared<SmtpSession>();
  session->stream = stream;
  std::erase_if(smtp_sessions_, [](const std::weak_ptr<SmtpSession>& w) {
    return w.expired();
  });
  smtp_sessions_.push_back(session);
  reply(stream, "220 hcm-mail ready");
  stream->set_on_close([session] { session->stream = nullptr; });
  stream->set_on_data([this, session](BlockStream&& data) {
    for (const auto& line : session->lines.feed(data)) {
      smtp_line(session, line);
    }
  });
}

void MailServer::smtp_line(const std::shared_ptr<SmtpSession>& s,
                           const std::string& line) {
  if (s->in_data) {
    if (line == ".") {
      // Parse optional "Subject:" header from the data section.
      Message m = s->pending;
      std::string body;
      bool in_headers = true;
      auto lines = split(s->data_buf, '\n');
      // data_buf ends with '\n', so split leaves one empty tail entry.
      if (!lines.empty() && lines.back().empty()) lines.pop_back();
      for (const auto& l : lines) {
        if (in_headers) {
          if (l.empty()) {
            in_headers = false;
            continue;
          }
          if (starts_with(to_lower(l), "subject:")) {
            m.subject = std::string(trim(l.substr(8)));
            continue;
          }
          continue;
        }
        body += l;
        body += '\n';
      }
      if (!body.empty()) body.pop_back();
      m.body = std::move(body);
      deliver(std::move(m));
      s->in_data = false;
      s->data_buf.clear();
      s->pending = Message{};
      reply(s->stream, "250 OK message accepted");
      return;
    }
    s->data_buf += line;
    s->data_buf += '\n';
    return;
  }
  auto upper_starts = [&](const char* prefix) {
    return starts_with(to_lower(line), to_lower(prefix));
  };
  if (upper_starts("HELO") || upper_starts("EHLO")) {
    reply(s->stream, "250 hello");
  } else if (upper_starts("MAIL FROM:")) {
    s->pending.from = local_part(line.substr(10));
    reply(s->stream, "250 sender OK");
  } else if (upper_starts("RCPT TO:")) {
    s->pending.to = local_part(line.substr(8));
    reply(s->stream, "250 recipient OK");
  } else if (upper_starts("DATA")) {
    if (s->pending.to.empty()) {
      reply(s->stream, "503 need RCPT first");
      return;
    }
    s->in_data = true;
    reply(s->stream, "354 end with .");
  } else if (upper_starts("QUIT")) {
    reply(s->stream, "221 bye");
    if (s->stream) s->stream->close();
  } else {
    reply(s->stream, "500 unrecognized command");
  }
}

void MailServer::on_pop_accept(net::StreamPtr stream) {
  auto session = std::make_shared<PopSession>();
  session->stream = stream;
  std::erase_if(pop_sessions_, [](const std::weak_ptr<PopSession>& w) {
    return w.expired();
  });
  pop_sessions_.push_back(session);
  reply(stream, "+OK hcm-pop ready");
  stream->set_on_close([session] { session->stream = nullptr; });
  stream->set_on_data([this, session](BlockStream&& data) {
    for (const auto& line : session->lines.feed(data)) {
      pop_line(session, line);
    }
  });
}

void MailServer::pop_line(const std::shared_ptr<PopSession>& s,
                          const std::string& line) {
  auto upper_starts = [&](const char* prefix) {
    return starts_with(to_lower(line), to_lower(prefix));
  };
  if (upper_starts("USER ")) {
    s->mailbox = std::string(trim(line.substr(5)));
    reply(s->stream, "+OK mailbox selected");
    return;
  }
  if (s->mailbox.empty()) {
    reply(s->stream, "-ERR USER first");
    return;
  }
  auto& box = mailboxes_[s->mailbox];
  if (upper_starts("STAT")) {
    reply(s->stream, "+OK " + std::to_string(box.size()));
  } else if (upper_starts("RETR ")) {
    auto idx = parse_uint(trim(line.substr(5)));
    if (idx < 1 || static_cast<std::size_t>(idx) > box.size()) {
      reply(s->stream, "-ERR no such message");
      return;
    }
    const Message& m = box[static_cast<std::size_t>(idx - 1)];
    reply(s->stream, "+OK message follows");
    reply(s->stream, "From: " + m.from);
    reply(s->stream, "Subject: " + m.subject);
    reply(s->stream, "");
    for (const auto& l : split(m.body, '\n')) reply(s->stream, l);
    reply(s->stream, ".");
  } else if (upper_starts("DELE ")) {
    auto idx = parse_uint(trim(line.substr(5)));
    if (idx < 1 || static_cast<std::size_t>(idx) > box.size()) {
      reply(s->stream, "-ERR no such message");
      return;
    }
    s->deleted.push_back(box[static_cast<std::size_t>(idx - 1)].id);
    reply(s->stream, "+OK marked");
  } else if (upper_starts("QUIT")) {
    // Commit deletions.
    for (auto id : s->deleted) {
      std::erase_if(box, [id](const Message& m) { return m.id == id; });
    }
    reply(s->stream, "+OK bye");
    if (s->stream) s->stream->close();
  } else {
    reply(s->stream, "-ERR unrecognized command");
  }
}

// --- Client -------------------------------------------------------------

MailClient::~MailClient() {
  unwatch();
  for (auto& [raw, stream] : active_) stream->close();
  active_.clear();
}

void MailClient::track(net::StreamPtr stream) {
  active_[stream.get()] = std::move(stream);
}

void MailClient::untrack(net::Stream* stream) { active_.erase(stream); }

void MailClient::send(const Message& m, DoneFn done) {
  net_.connect(node_, {server_, kSmtpPort},
               [this, alive = std::weak_ptr<bool>(alive_), m,
                done = std::move(done)](Result<net::StreamPtr> r) {
    if (alive.expired()) {  // client destroyed while connecting
      if (r.is_ok()) r.value()->close();
      return;
    }
    if (!r.is_ok()) {
      done(r.status());
      return;
    }
    auto stream = r.value();
    net::Stream* raw = stream.get();  // owned by active_ via track()
    track(std::move(stream));
    auto lines = std::make_shared<LineBuffer>();
    auto stage = std::make_shared<int>(0);
    auto finished = std::make_shared<bool>(false);
    auto done_shared = std::make_shared<DoneFn>(std::move(done));

    raw->set_on_close([this, finished, done_shared, raw] {
      if (!*finished) {
        (*done_shared)(unavailable("SMTP connection closed early"));
        *finished = true;
      }
      untrack(raw);
    });
    raw->set_on_data([this, m, raw, lines, stage, finished,
                      done_shared](BlockStream&& data) {
      for (const auto& line : lines->feed(data)) {
        const bool ok = starts_with(line, "2") || starts_with(line, "3");
        if (!ok) {
          if (!*finished) {
            (*done_shared)(protocol_error("SMTP rejected: " + line));
            *finished = true;
          }
          raw->close();
          untrack(raw);
          return;
        }
        switch ((*stage)++) {
          case 0:  // greeting
            raw->send(to_bytes("HELO hcm\r\n"));
            break;
          case 1:
            raw->send(to_bytes("MAIL FROM:<" + m.from + ">\r\n"));
            break;
          case 2:
            raw->send(to_bytes("RCPT TO:<" + m.to + ">\r\n"));
            break;
          case 3:
            raw->send(to_bytes("DATA\r\n"));
            break;
          case 4:
            raw->send(to_bytes("Subject: " + m.subject + "\r\n\r\n" +
                               m.body + "\r\n.\r\n"));
            break;
          case 5:
            raw->send(to_bytes("QUIT\r\n"));
            if (!*finished) {
              (*done_shared)(Status::ok());
              *finished = true;
            }
            break;
          default:
            raw->close();
            untrack(raw);
            return;
        }
      }
    });
  });
}

void MailClient::fetch(const std::string& mailbox, MessagesFn done) {
  net_.connect(node_, {server_, kPopPort},
               [this, alive = std::weak_ptr<bool>(alive_), mailbox,
                done = std::move(done)](Result<net::StreamPtr> r) {
    if (alive.expired()) {  // client destroyed while connecting
      if (r.is_ok()) r.value()->close();
      return;
    }
    if (!r.is_ok()) {
      done(r.status());
      return;
    }
    auto stream = r.value();
    net::Stream* raw = stream.get();  // owned by active_ via track()
    track(std::move(stream));
    auto lines = std::make_shared<LineBuffer>();
    struct FetchState {
      int stage = 0;
      int total = 0;
      int current = 0;
      bool in_message = false;
      bool past_headers = false;
      Message msg;
      std::vector<Message> out;
      bool finished = false;
    };
    auto st = std::make_shared<FetchState>();
    auto done_shared = std::make_shared<MessagesFn>(std::move(done));

    raw->set_on_close([this, st, done_shared, raw] {
      if (!st->finished) {
        st->finished = true;
        (*done_shared)(unavailable("POP connection closed early"));
      }
      untrack(raw);
    });
    raw->set_on_data([this, mailbox, raw, lines, st,
                      done_shared](BlockStream&& data) {
      for (const auto& line : lines->feed(data)) {
        if (st->in_message) {
          if (line == ".") {
            if (!st->msg.body.empty()) st->msg.body.pop_back();  // trailing \n
            st->out.push_back(st->msg);
            st->in_message = false;
            st->stage = 4;
            raw->send(to_bytes("DELE " + std::to_string(st->current) +
                                  "\r\n"));
          } else if (!st->past_headers) {
            if (line.empty()) {
              st->past_headers = true;
            } else if (starts_with(to_lower(line), "from:")) {
              st->msg.from = std::string(trim(line.substr(5)));
            } else if (starts_with(to_lower(line), "subject:")) {
              st->msg.subject = std::string(trim(line.substr(8)));
            }
          } else {
            st->msg.body += line;
            st->msg.body += '\n';
          }
          continue;
        }
        if (!starts_with(line, "+OK")) {
          if (!st->finished) {
            st->finished = true;
            (*done_shared)(protocol_error("POP error: " + line));
          }
          raw->close();
          untrack(raw);
          return;
        }
        switch (st->stage) {
          case 0:  // greeting
            st->stage = 1;
            raw->send(to_bytes("USER " + mailbox + "\r\n"));
            break;
          case 1:  // USER ok
            st->stage = 2;
            raw->send(to_bytes("STAT\r\n"));
            break;
          case 2: {  // STAT reply: "+OK n"
            st->total = static_cast<int>(parse_uint(trim(line.substr(4))));
            if (st->total <= 0) {
              st->stage = 5;
              raw->send(to_bytes("QUIT\r\n"));
            } else {
              st->current = 1;
              st->stage = 3;
              raw->send(to_bytes("RETR 1\r\n"));
            }
            break;
          }
          case 3:  // RETR ok: message lines follow until "."
            st->in_message = true;
            st->past_headers = false;
            st->msg = Message{};
            st->msg.to = mailbox;
            break;
          case 4:  // DELE ok -> next message or quit
            if (st->current < st->total) {
              ++st->current;
              st->stage = 3;
              raw->send(to_bytes("RETR " + std::to_string(st->current) +
                                    "\r\n"));
            } else {
              st->stage = 5;
              raw->send(to_bytes("QUIT\r\n"));
            }
            break;
          case 5:  // QUIT ok
            if (!st->finished) {
              st->finished = true;
              (*done_shared)(std::move(st->out));
            }
            raw->close();
            untrack(raw);
            return;
          default:
            break;
        }
      }
    });
  });
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
