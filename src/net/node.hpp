// A simulated host: an appliance, PC, gateway, or embedded controller.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/address.hpp"

namespace hcm::net {

class Stream;
using StreamPtr = std::shared_ptr<Stream>;

using DatagramHandler = std::function<void(Endpoint from, const Bytes& data)>;
using AcceptHandler = std::function<void(StreamPtr stream)>;

class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // Failure injection: a down node neither sends nor receives. Atomic:
  // routing on any shard reads it, fault injection writes it.
  [[nodiscard]] bool is_up() const {
    return up_.load(std::memory_order_relaxed);
  }
  void set_up(bool up) { up_.store(up, std::memory_order_relaxed); }

  // --- Datagram ports ------------------------------------------------
  Status bind(std::uint16_t port, DatagramHandler handler);
  void unbind(std::uint16_t port);
  [[nodiscard]] const DatagramHandler* datagram_handler(std::uint16_t port) const;

  // --- Stream listeners ----------------------------------------------
  Status listen(std::uint16_t port, AcceptHandler handler);
  void stop_listening(std::uint16_t port);
  [[nodiscard]] const AcceptHandler* listener(std::uint16_t port) const;

  // Ephemeral port allocation for outgoing connections.
  [[nodiscard]] std::uint16_t next_ephemeral_port();

 private:
  NodeId id_;
  std::string name_;
  std::atomic<bool> up_{true};
  // Owner-shard state: handlers, listeners and ephemeral ports are only
  // touched by code running on this node's shard (deliveries arrive
  // there via Network's shard-aware channels), so they need no locks.
  std::map<std::uint16_t, DatagramHandler> datagram_handlers_;
  std::map<std::uint16_t, AcceptHandler> listeners_;
  std::uint16_t next_ephemeral_ = 49152;
};

}  // namespace hcm::net
