#include "net/ieee1394.hpp"

namespace hcm::net {

void Ieee1394Bus::subscribe_reset(NodeId node, BusResetHandler handler) {
  reset_handlers_[node].push_back(std::move(handler));
}

void Ieee1394Bus::reset_bus() {
  ++generation_;
  const std::uint32_t gen = generation_;
  // Reset completes after ~2 ms of bus arbitration, then every node's
  // reset handler runs (HAVi re-enumerates the bus from these).
  for (auto& [node, handlers] : reset_handlers_) {
    for (const auto& handler : handlers) {
      if (!handler) continue;
      auto h = handler;  // copy: handler map may change during delivery
      sched_.after(sim::milliseconds(2), [h, gen] { h(gen); });
    }
  }
}

Result<IsoChannel> Ieee1394Bus::allocate_channel(std::uint32_t bytes_per_cycle) {
  for (int ch = 0; ch < kIsoChannelCount; ++ch) {
    auto channel = static_cast<IsoChannel>(ch);
    if (channels_.find(channel) == channels_.end()) {
      channels_[channel].bytes_per_cycle = bytes_per_cycle;
      return channel;
    }
  }
  return resource_exhausted("no free isochronous channel");
}

Status Ieee1394Bus::release_channel(IsoChannel ch) {
  if (channels_.erase(ch) == 0) {
    return not_found("iso channel not allocated: " + std::to_string(ch));
  }
  return Status::ok();
}

IsoListenerId Ieee1394Bus::listen_channel(IsoChannel ch,
                                          IsoPacketHandler handler) {
  auto id = next_listener_++;
  channels_[ch].listeners.emplace(id, std::move(handler));
  return id;
}

void Ieee1394Bus::unlisten_channel(IsoChannel ch, IsoListenerId id) {
  auto it = channels_.find(ch);
  if (it != channels_.end()) it->second.listeners.erase(id);
}

Status Ieee1394Bus::send_iso(IsoChannel ch, Bytes payload) {
  if (!is_up()) return unavailable("1394 bus is down");
  auto it = channels_.find(ch);
  if (it == channels_.end()) {
    return not_found("iso channel not allocated: " + std::to_string(ch));
  }
  account(payload.size());
  ++iso_packets_;
  auto listeners = it->second.listeners;  // copy for safe delivery
  sched_.after(sim::microseconds(125),
               [listeners, ch, payload = std::move(payload)] {
                 for (const auto& [id, l] : listeners) l(ch, payload);
               });
  return Status::ok();
}

}  // namespace hcm::net
