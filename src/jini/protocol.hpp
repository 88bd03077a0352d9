// The Jini-like middleware's wire protocol. Real Jini moves serialized
// Java objects over JRMP; our stand-in moves length-framed binary Values
// over reliable streams (framing: common/frame_reader.hpp), preserving
// the call/reply, registration, lease and remote-event semantics (see
// DESIGN.md substitution table).
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/interface_desc.hpp"
#include "common/service.hpp"
#include "common/status.hpp"
#include "common/value.hpp"
#include "net/address.hpp"

namespace hcm::jini {

// Well-known ports / groups (mirroring Jini's 4160).
constexpr std::uint16_t kLookupPort = 4160;
constexpr std::uint16_t kDiscoveryPort = 4160;
constexpr net::GroupId kDiscoveryGroup = 0x4A494E49;  // "JINI"

// A registered Jini service: identity, typed interface, and the
// endpoint its exporter listens on.
struct ServiceItem {
  std::string service_id;
  std::string name;
  InterfaceDesc interface;
  net::Endpoint endpoint;
  ValueMap attributes;

  [[nodiscard]] Value to_value() const;
  static Result<ServiceItem> from_value(const Value& v);

  friend bool operator==(const ServiceItem&, const ServiceItem&) = default;
};

// Remote call and reply messages.
struct CallMessage {
  std::uint64_t call_id = 0;
  std::string service_id;
  std::string method;
  ValueList args;
  bool one_way = false;
};

struct ReplyMessage {
  std::uint64_t call_id = 0;
  Status status;
  Value value;
};

[[nodiscard]] Bytes encode_call(const CallMessage& m);
[[nodiscard]] Result<CallMessage> decode_call(ByteView b);
[[nodiscard]] Bytes encode_reply(const ReplyMessage& m);
[[nodiscard]] Result<ReplyMessage> decode_reply(ByteView b);

}  // namespace hcm::jini
