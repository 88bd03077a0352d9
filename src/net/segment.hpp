// Network segments: the physical media of the simulated home.
// EthernetSegment models the TCP/IP home LAN and the Internet backbone;
// Ieee1394Bus and PowerlineSegment live in their own headers.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "sim/scheduler.hpp"

namespace hcm::net {

enum class SegmentKind { kEthernet, kIeee1394, kPowerline };

// A shared medium connecting a set of nodes. Subclasses define the
// latency/bandwidth model; Network uses transit_time() for delivery.
class Segment {
 public:
  Segment(std::string name, SegmentKind kind)
      : name_(std::move(name)), kind_(kind) {}
  virtual ~Segment() = default;
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] SegmentKind kind() const { return kind_; }

  // Time for `bytes` to cross this segment, including media access.
  [[nodiscard]] virtual sim::Duration transit_time(std::size_t bytes) const = 0;

  // Failure injection. Atomic flags: a backbone segment is consulted
  // by routing/accounting on every shard that touches it, while fault
  // injection flips state from scenario code (docs/SHARDING.md).
  [[nodiscard]] bool is_up() const {
    return up_.load(std::memory_order_relaxed);
  }
  void set_up(bool up) { up_.store(up, std::memory_order_relaxed); }
  [[nodiscard]] double drop_probability() const {
    return drop_probability_.load(std::memory_order_relaxed);
  }
  void set_drop_probability(double p) {
    drop_probability_.store(p, std::memory_order_relaxed);
  }

  // Membership (managed by Network; topology is frozen before a
  // sharded run, so reads need no lock) --------------------------------
  void attach(NodeId node) { nodes_.push_back(node); }
  [[nodiscard]] const std::vector<NodeId>& nodes() const { return nodes_; }
  [[nodiscard]] bool has_node(NodeId node) const;

  // Traffic accounting (read by the wire-overhead benches). Relaxed
  // atomics: cross-island traffic accounts from multiple shards.
  void account(std::size_t bytes) {
    bytes_carried_.fetch_add(bytes, std::memory_order_relaxed);
    frames_carried_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_carried() const {
    return bytes_carried_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_carried() const {
    return frames_carried_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  SegmentKind kind_;
  std::vector<NodeId> nodes_;
  std::atomic<bool> up_{true};
  std::atomic<double> drop_probability_{0.0};
  std::atomic<std::uint64_t> bytes_carried_{0};
  std::atomic<std::uint64_t> frames_carried_{0};
};

// Switched Ethernet / Internet hop: latency + serialization delay.
class EthernetSegment : public Segment {
 public:
  EthernetSegment(std::string name, sim::Duration base_latency,
                  std::uint64_t bandwidth_bps)
      : Segment(std::move(name), SegmentKind::kEthernet),
        base_latency_(base_latency),
        bandwidth_bps_(bandwidth_bps) {}

  [[nodiscard]] sim::Duration transit_time(std::size_t bytes) const override {
    // serialization delay: bits / bandwidth, in microseconds
    auto ser = static_cast<sim::Duration>(
        (static_cast<std::uint64_t>(bytes) * 8 * 1000000) / bandwidth_bps_);
    return base_latency_ + ser;
  }

 private:
  sim::Duration base_latency_;
  std::uint64_t bandwidth_bps_;
};

}  // namespace hcm::net
