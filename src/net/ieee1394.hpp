// IEEE 1394 (FireWire) bus model: the substrate HAVi runs on.
// Asynchronous packets go through the generic Network datagram path
// (transit_time below); isochronous streaming and bus resets are the
// 1394-specific features HAVi's stream manager and enumeration need.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/segment.hpp"
#include "sim/scheduler.hpp"

namespace hcm::net {

using IsoChannel = std::uint8_t;
constexpr int kIsoChannelCount = 64;

// Called on each attached node when the bus resets (device added or
// removed). `generation` increments per reset, as in real 1394.
using BusResetHandler = std::function<void(std::uint32_t generation)>;
// Sink callback for isochronous packets.
using IsoPacketHandler =
    std::function<void(IsoChannel channel, const Bytes& payload)>;
using IsoListenerId = std::uint64_t;

class Ieee1394Bus : public Segment {
 public:
  // S400: 400 Mb/s, ~25 us arbitration+propagation per async packet.
  explicit Ieee1394Bus(std::string name, sim::Scheduler& sched)
      : Segment(std::move(name), SegmentKind::kIeee1394), sched_(sched) {}

  [[nodiscard]] sim::Duration transit_time(std::size_t bytes) const override {
    auto ser = static_cast<sim::Duration>(
        (static_cast<std::uint64_t>(bytes) * 8 * 1000000) / 400'000'000ULL);
    return sim::microseconds(25) + ser;
  }

  // --- Bus reset / generations -------------------------------------
  [[nodiscard]] std::uint32_t generation() const { return generation_; }
  void subscribe_reset(NodeId node, BusResetHandler handler);
  // Triggers a reset (call after attaching/detaching a device).
  void reset_bus();

  // --- Isochronous channels ----------------------------------------
  // Allocates a free channel with the given bandwidth (bytes / cycle,
  // 8 kHz cycle clock). Returns the channel number.
  [[nodiscard]] Result<IsoChannel> allocate_channel(std::uint32_t bytes_per_cycle);
  Status release_channel(IsoChannel ch);
  [[nodiscard]] int channels_in_use() const {
    return static_cast<int>(channels_.size());
  }

  // Registers a listener for packets on a channel (e.g. a display FCM).
  IsoListenerId listen_channel(IsoChannel ch, IsoPacketHandler handler);
  // Removes one listener; other listeners on the channel are untouched.
  void unlisten_channel(IsoChannel ch, IsoListenerId id);

  // Transmits one isochronous packet on a channel; delivered to all
  // listeners after one cycle (125 us).
  Status send_iso(IsoChannel ch, Bytes payload);

  [[nodiscard]] std::uint64_t iso_packets_sent() const { return iso_packets_; }

 private:
  struct ChannelState {
    std::uint32_t bytes_per_cycle = 0;
    std::map<IsoListenerId, IsoPacketHandler> listeners;
  };

  sim::Scheduler& sched_;
  std::uint32_t generation_ = 0;
  // Several elements of one node may watch resets (the FAV's Registry
  // and Event Manager); each handler runs, in subscription order.
  std::map<NodeId, std::vector<BusResetHandler>> reset_handlers_;
  std::map<IsoChannel, ChannelState> channels_;
  IsoListenerId next_listener_ = 1;
  std::uint64_t iso_packets_ = 0;
};

}  // namespace hcm::net
