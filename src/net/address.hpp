// Addressing for the simulated home network.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>

namespace hcm::net {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = 0;

struct Endpoint {
  NodeId node = kInvalidNode;
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const {
    return "node-" + std::to_string(node) + ":" + std::to_string(port);
  }
  // to_string()'s bytes appended into a recycled string, no temporary.
  void append_to(std::string& out) const {
    char buf[12];
    out += "node-";
    auto [n_end, n_ec] = std::to_chars(buf, buf + sizeof(buf), node);
    out.append(buf, n_end);
    out += ':';
    auto [p_end, p_ec] = std::to_chars(buf, buf + sizeof(buf), port);
    out.append(buf, p_end);
  }

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
  friend bool operator<(const Endpoint& a, const Endpoint& b) {
    return a.node != b.node ? a.node < b.node : a.port < b.port;
  }
};

// Multicast group address (segment-scoped, like 239.x addresses).
using GroupId = std::uint32_t;

}  // namespace hcm::net
