// The Jini-like middleware's wire protocol. Real Jini moves serialized
// Java objects over JRMP; our stand-in rides the one framed RPC
// (net/binary_channel.hpp, family "jini"): calls, replies and one-way
// remote events are its request/ok/error/one-way frames, preserving
// the call/reply, registration, lease and remote-event semantics (see
// DESIGN.md substitution table). What is Jini's own here is the
// ServiceItem a lookup service stores and returns.
#pragma once

#include <cstdint>
#include <string>

#include "common/interface_desc.hpp"
#include "common/service.hpp"
#include "common/status.hpp"
#include "common/value.hpp"
#include "net/address.hpp"
#include "sim/scheduler.hpp"

namespace hcm::jini {

// Well-known ports / groups (mirroring Jini's 4160).
constexpr std::uint16_t kLookupPort = 4160;
constexpr std::uint16_t kDiscoveryPort = 4160;
constexpr net::GroupId kDiscoveryGroup = 0x4A494E49;  // "JINI"

// How long a Proxy call waits for its reply.
constexpr sim::Duration kCallTimeout = sim::seconds(10);

// A registered Jini service: identity, typed interface, and the
// endpoint of the jini BinaryRpcServer that hosts it.
struct ServiceItem {
  std::string service_id;
  std::string name;
  InterfaceDesc interface;
  net::Endpoint endpoint;
  ValueMap attributes;

  [[nodiscard]] Value to_value() const;
  static Result<ServiceItem> from_value(const Value& v);
  // Same, moving the attributes out of `v`.
  static Result<ServiceItem> from_value(Value&& v);

  friend bool operator==(const ServiceItem&, const ServiceItem&) = default;
};

}  // namespace hcm::jini
