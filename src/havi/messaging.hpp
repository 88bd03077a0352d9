// HAVi Messaging System: software elements (SEs) addressed by SEID
// exchange request/reply messages over IEEE1394 asynchronous packets.
// Every HAVi system component (Registry, Event Manager, DCMs, FCMs,
// Stream Manager) is a software element on this fabric.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/service.hpp"
#include "common/value_codec.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace hcm::havi {

// Well-known async port HAVi messaging rides on.
constexpr std::uint16_t kMessagingPort = 0x580;

// Software Element ID: node + per-node handle.
struct Seid {
  net::NodeId node = net::kInvalidNode;
  std::uint32_t handle = 0;

  [[nodiscard]] std::string to_string() const {
    return "seid(" + std::to_string(node) + "." + std::to_string(handle) + ")";
  }
  [[nodiscard]] Value to_value() const;
  static Result<Seid> from_value(const Value& v);

  friend bool operator==(const Seid&, const Seid&) = default;
  friend bool operator<(const Seid& a, const Seid& b) {
    return a.node != b.node ? a.node < b.node : a.handle < b.handle;
  }
};

// Well-known system software element handles (per HAVi spec shape).
constexpr std::uint32_t kRegistryHandle = 1;
constexpr std::uint32_t kEventManagerHandle = 2;
constexpr std::uint32_t kStreamManagerHandle = 3;
constexpr std::uint32_t kFirstUserHandle = 16;

// HAVi message kinds, the first byte of every message on the wire.
enum class MessageKind : std::uint8_t {
  kRequest = 1,
  kNotification = 2,
  kReplyOk = 3,
  kReplyError = 4,
};

// One HAVi message, decoded from a datagram or built for local
// delivery. Wire layout, integers big-endian:
//
//   u8  kind        a MessageKind
//   u64 id          request id, echoed by its reply (0 on notifications)
//   u32 node, u32 handle   source SEID
//   u32 node, u32 handle   destination SEID
//   request, notification: u16 length + op name, then the args as
//                          encode_value(ValueList)
//   reply-ok:              encode_value(result)
//   reply-error:           u8 StatusCode (1..kResourceExhausted), then
//                          u32 length + message
//
// A datagram that does not decode exactly (short, an unknown kind, an
// error code out of range, args nested past kMaxValueDepth, trailing
// bytes) is dropped and counted in havi.msg.rejected.
struct Message {
  MessageKind kind = MessageKind::kRequest;
  std::uint64_t id = 0;
  Seid src;
  Seid dst;
  std::string op;                 // request, notification
  ValueList args;                 // request, notification
  Result<Value> reply = Value();  // reply-ok, reply-error
};

// One messaging system per 1394 node. Registers local software
// elements, sends messages, and correlates replies.
class MessagingSystem {
 public:
  MessagingSystem(net::Network& net, net::NodeId node);
  ~MessagingSystem();
  MessagingSystem(const MessagingSystem&) = delete;
  MessagingSystem& operator=(const MessagingSystem&) = delete;

  Status start();
  void stop();

  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] net::Network& network() { return net_; }

  // Registers a software element; returns its SEID. The handler serves
  // incoming request messages.
  Seid register_element(ServiceHandler handler);
  // Registers at a fixed well-known handle (system elements).
  Result<Seid> register_system_element(std::uint32_t handle,
                                       ServiceHandler handler);
  void unregister_element(const Seid& seid);

  // Sends a request to a (possibly remote) SE; done receives the reply.
  void send_request(const Seid& from, const Seid& to, const std::string& op,
                    const ValueList& args, InvokeResultFn done);
  // Fire-and-forget notification message.
  void send_notification(const Seid& from, const Seid& to,
                         const std::string& op, const ValueList& args);

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }

  static constexpr sim::Duration kReplyTimeout = sim::seconds(5);

 private:
  void send(MessageKind kind, std::uint64_t id, const Seid& from,
            const Seid& to, const std::string& op, const ValueList& args);
  void on_datagram(net::Endpoint from, const Bytes& data);
  // Local delivery: the message moves into one 10 µs scheduler tick
  // (no encode), so ordering matches remote delivery.
  void deliver_later(Message&& msg);
  void deliver(Message& msg);
  void deliver_request(Message& msg);
  void deliver_reply(Message& msg);

  net::Network& net_;
  net::NodeId node_;
  bool started_ = false;
  std::uint32_t next_handle_ = kFirstUserHandle;
  std::map<std::uint32_t, ServiceHandler> elements_;
  struct Pending {
    std::uint64_t id;
    sim::EventId timeout_event;
    InvokeResultFn done;
  };
  std::uint64_t next_msg_ = 1;
  std::vector<Pending> pending_;  // oldest first; capacity reused
  // Decode scratch reused datagram over datagram: handlers consume the
  // args synchronously.
  Message rx_;
  std::uint64_t messages_sent_ = 0;
  obs::Counter& rejected_;  // havi.msg.rejected
};

}  // namespace hcm::havi
