#include "havi/messaging.hpp"

#include <algorithm>

#include "obs/slab.hpp"

namespace hcm::havi {

namespace {

// kind + id + two SEIDs.
constexpr std::size_t kHeaderBytes = 1 + 8 + 2 * (4 + 4);
// Room reserved for the args or reply value; a larger body regrows.
constexpr std::size_t kBodyReserve = 128;

void write_header(BufWriter& w, MessageKind kind, std::uint64_t id,
                  const Seid& src, const Seid& dst) {
  w.put_u8(static_cast<std::uint8_t>(kind));
  w.put_u64(id);
  w.put_u32(src.node);
  w.put_u32(src.handle);
  w.put_u32(dst.node);
  w.put_u32(dst.handle);
}

Bytes encode_request(MessageKind kind, std::uint64_t id, const Seid& src,
                     const Seid& dst, const std::string& op,
                     const ValueList& args) {
  BufWriter w;
  w.reserve(kHeaderBytes + 2 + op.size() + kBodyReserve);
  write_header(w, kind, id, src, dst);
  w.put_u16(static_cast<std::uint16_t>(op.size()));
  w.put_raw(op);
  encode_value(args, w);
  return w.take();
}

Bytes encode_reply(const Message& msg) {
  BufWriter w;
  w.reserve(kHeaderBytes + kBodyReserve);
  write_header(w, msg.kind, msg.id, msg.src, msg.dst);
  if (msg.reply.is_ok()) {
    encode_value(msg.reply.value(), w);
  } else {
    w.put_u8(static_cast<std::uint8_t>(msg.reply.status().code()));
    w.put_string(msg.reply.status().message());
  }
  return w.take();
}

Result<Seid> read_seid(BufReader& r) {
  auto node = r.u32();
  auto handle = r.u32();
  if (!node.is_ok() || !handle.is_ok()) return protocol_error("havi: short");
  return Seid{node.value(), handle.value()};
}

// Decodes one datagram into `msg`, reusing its op and args capacity.
Status decode_message(ByteView data, Message& msg) {
  BufReader r(data);
  auto kind = r.u8();
  auto id = r.u64();
  if (!kind.is_ok() || !id.is_ok()) return protocol_error("havi: short");
  auto src = read_seid(r);
  if (!src.is_ok()) return src.status();
  auto dst = read_seid(r);
  if (!dst.is_ok()) return dst.status();
  if (kind.value() < static_cast<std::uint8_t>(MessageKind::kRequest) ||
      kind.value() > static_cast<std::uint8_t>(MessageKind::kReplyError)) {
    return protocol_error("havi: unknown message kind");
  }
  msg.kind = static_cast<MessageKind>(kind.value());
  msg.id = id.value();
  msg.src = src.value();
  msg.dst = dst.value();
  switch (msg.kind) {
    case MessageKind::kRequest:
    case MessageKind::kNotification: {
      auto n = r.u16();
      if (!n.is_ok()) return n.status();
      auto op = r.view(n.value());
      if (!op.is_ok()) return op.status();
      msg.op.assign(op.value());
      if (auto s = decode_value(r, msg.args); !s.is_ok()) return s;
      break;
    }
    case MessageKind::kReplyOk:
      msg.reply = decode_value(r);
      if (!msg.reply.is_ok()) return msg.reply.status();
      break;
    case MessageKind::kReplyError: {
      auto code = r.u8();
      auto text = r.string();
      if (!code.is_ok() || !text.is_ok() || code.value() == 0 ||
          code.value() > static_cast<int>(StatusCode::kResourceExhausted)) {
        return protocol_error("havi: bad error reply");
      }
      msg.reply = Status(static_cast<StatusCode>(code.value()),
                         std::move(text).take());
      break;
    }
  }
  if (!r.at_end()) return protocol_error("havi: trailing bytes");
  return Status::ok();
}

}  // namespace

Value Seid::to_value() const {
  ValueMap out;
  out.reserve(2);
  out.emplace("node", static_cast<std::int64_t>(node));
  out.emplace("handle", static_cast<std::int64_t>(handle));
  return Value(std::move(out));
}

Result<Seid> Seid::from_value(const Value& v) {
  if (!v.is_map()) return protocol_error("seid is not a map");
  auto node = v.at("node").to_int();
  auto handle = v.at("handle").to_int();
  if (!node.is_ok() || !handle.is_ok()) return protocol_error("bad seid");
  return Seid{static_cast<net::NodeId>(node.value()),
              static_cast<std::uint32_t>(handle.value())};
}

MessagingSystem::MessagingSystem(net::Network& net, net::NodeId node)
    : net_(net),
      node_(node),
      rejected_(obs::shard_registry().counter("havi.msg.rejected")) {}

MessagingSystem::~MessagingSystem() { stop(); }

Status MessagingSystem::start() {
  net::Node* n = net_.node(node_);
  if (n == nullptr) return not_found("messaging: no such node");
  auto status = n->bind(kMessagingPort,
                        [this](net::Endpoint from, const Bytes& data) {
                          on_datagram(from, data);
                        });
  if (!status.is_ok()) return status;
  started_ = true;
  return Status::ok();
}

void MessagingSystem::stop() {
  if (!started_) return;
  if (net::Node* n = net_.node(node_)) n->unbind(kMessagingPort);
  started_ = false;
}

Seid MessagingSystem::register_element(ServiceHandler handler) {
  Seid seid{node_, next_handle_++};
  elements_[seid.handle] = std::move(handler);
  return seid;
}

Result<Seid> MessagingSystem::register_system_element(std::uint32_t handle,
                                                      ServiceHandler handler) {
  if (elements_.count(handle) != 0) {
    return already_exists("SE handle in use: " + std::to_string(handle));
  }
  elements_[handle] = std::move(handler);
  return Seid{node_, handle};
}

void MessagingSystem::unregister_element(const Seid& seid) {
  if (seid.node == node_) elements_.erase(seid.handle);
}

void MessagingSystem::send_request(const Seid& from, const Seid& to,
                                   const std::string& op,
                                   const ValueList& args, InvokeResultFn done) {
  if (op.size() > 0xFFFF) {
    done(invalid_argument("HAVi op name too long"));
    return;
  }
  const std::uint64_t id = next_msg_++;
  const sim::EventId timer =
      net_.scheduler().after(kReplyTimeout, [this, id] {
        auto it = std::find_if(pending_.begin(), pending_.end(),
                               [id](const Pending& p) { return p.id == id; });
        if (it == pending_.end()) return;
        auto done = std::move(it->done);
        pending_.erase(it);
        done(timeout("HAVi message timed out"));
      });
  pending_.push_back({id, timer, std::move(done)});
  send(MessageKind::kRequest, id, from, to, op, args);
}

void MessagingSystem::send_notification(const Seid& from, const Seid& to,
                                        const std::string& op,
                                        const ValueList& args) {
  if (op.size() > 0xFFFF) return;
  send(MessageKind::kNotification, 0, from, to, op, args);
}

void MessagingSystem::send(MessageKind kind, std::uint64_t id,
                           const Seid& from, const Seid& to,
                           const std::string& op, const ValueList& args) {
  ++messages_sent_;
  if (to.node == node_) {
    deliver_later(Message{kind, id, from, to, op, args});
  } else {
    net_.send_datagram({node_, kMessagingPort}, {to.node, kMessagingPort},
                       encode_request(kind, id, from, to, op, args));
  }
}

void MessagingSystem::deliver_later(Message&& msg) {
  net_.scheduler().after(sim::microseconds(10),
                         [this, m = std::move(msg)]() mutable { deliver(m); });
}

void MessagingSystem::on_datagram(net::Endpoint, const Bytes& data) {
  if (!decode_message(data, rx_).is_ok()) {
    rejected_.inc();
    return;
  }
  deliver(rx_);
}

void MessagingSystem::deliver(Message& msg) {
  if (msg.kind == MessageKind::kReplyOk ||
      msg.kind == MessageKind::kReplyError) {
    deliver_reply(msg);
  } else {
    deliver_request(msg);
  }
}

void MessagingSystem::deliver_request(Message& msg) {
  auto send_reply = [this, id = msg.id, reply_to = msg.src, self = msg.dst,
                     wants_reply = msg.kind == MessageKind::kRequest](
                        Result<Value> result) {
    if (!wants_reply) return;
    const MessageKind kind =
        result.is_ok() ? MessageKind::kReplyOk : MessageKind::kReplyError;
    Message reply{kind, id, self, reply_to, {}, {}, std::move(result)};
    if (reply_to.node == node_) {
      deliver_later(std::move(reply));
    } else {
      net_.send_datagram({node_, kMessagingPort},
                         {reply_to.node, kMessagingPort}, encode_reply(reply));
    }
  };

  auto it = elements_.find(msg.dst.handle);
  if (it == elements_.end()) {
    send_reply(not_found("no software element " + msg.dst.to_string()));
    return;
  }
  it->second(msg.op, msg.args, std::move(send_reply));
}

void MessagingSystem::deliver_reply(Message& msg) {
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [&msg](const Pending& p) { return p.id == msg.id; });
  if (it == pending_.end()) return;  // late reply after timeout
  Pending p = std::move(*it);
  pending_.erase(it);
  net_.scheduler().cancel(p.timeout_event);
  p.done(std::move(msg.reply));
}

}  // namespace hcm::havi
