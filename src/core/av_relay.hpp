// Cross-island AV stream relay — the second §6 future-work item:
// "conversion of multimedia streams for multimedia application". The
// HTTP-based VSG cannot carry an isochronous stream; this extension
// taps an IEEE1394 isochronous channel at the HAVi gateway, relays the
// frames over the backbone as datagrams (with per-frame sequence
// numbers), and hands them to a sink callback on the consuming island.
// Loss is possible (datagram semantics) and is reported — the relay
// trades reliability for rate, like real AV transports.
#pragma once

#include <functional>
#include <map>

#include "common/bytes.hpp"
#include "net/ieee1394.hpp"
#include "net/network.hpp"

namespace hcm::core {

constexpr std::uint16_t kAvRelayPort = 8300;

// Receiving side: accepts relayed frames and delivers them to a sink.
class AvRelayReceiver {
 public:
  AvRelayReceiver(net::Network& net, net::NodeId node);
  ~AvRelayReceiver();
  AvRelayReceiver(const AvRelayReceiver&) = delete;
  AvRelayReceiver& operator=(const AvRelayReceiver&) = delete;

  [[nodiscard]] Status start();

  using FrameSink = std::function<void(std::uint64_t seq, const Bytes& frame)>;
  // One sink per stream id.
  void open_stream(std::uint32_t stream_id, FrameSink sink);

  [[nodiscard]] std::uint64_t frames_received() const {
    return frames_received_;
  }
  // Gaps observed in sequence numbers (lost or reordered frames).
  [[nodiscard]] std::uint64_t frames_lost() const { return frames_lost_; }
  [[nodiscard]] net::Endpoint endpoint() const {
    return {node_, kAvRelayPort};
  }

 private:
  struct Stream {
    FrameSink sink;
    std::uint64_t next_seq = 0;
  };

  net::Network& net_;
  net::NodeId node_;
  bool started_ = false;
  std::map<std::uint32_t, Stream> streams_;
  std::uint64_t frames_received_ = 0;
  std::uint64_t frames_lost_ = 0;
};

// Sending side: taps a 1394 isochronous channel on the local bus and
// forwards every packet to a remote receiver.
class AvRelaySender {
 public:
  AvRelaySender(net::Network& net, net::NodeId gateway_node,
                net::Ieee1394Bus& bus)
      : net_(net), node_(gateway_node), bus_(bus) {}
  ~AvRelaySender();
  AvRelaySender(const AvRelaySender&) = delete;
  AvRelaySender& operator=(const AvRelaySender&) = delete;

  // Starts relaying `channel` to `receiver` under `stream_id`.
  [[nodiscard]] Status relay(net::IsoChannel channel, net::Endpoint receiver,
                             std::uint32_t stream_id);
  void stop(std::uint32_t stream_id);

  [[nodiscard]] std::uint64_t frames_relayed() const {
    return frames_relayed_;
  }

 private:
  struct Relay {
    net::IsoChannel channel;
    net::Endpoint receiver;
    net::IsoListenerId listener = 0;
    std::uint64_t next_seq = 0;
  };

  net::Network& net_;
  net::NodeId node_;
  net::Ieee1394Bus& bus_;
  std::map<std::uint32_t, Relay> relays_;
  std::uint64_t frames_relayed_ = 0;
};

}  // namespace hcm::core
