#include "core/av_relay.hpp"

namespace hcm::core {

namespace {
// Relay datagram: [stream_id u32][seq u64][payload...].
Bytes pack(std::uint32_t stream_id, std::uint64_t seq, const Bytes& frame) {
  BufWriter w;
  w.put_u32(stream_id);
  w.put_u64(seq);
  w.put_raw(frame);
  return w.take();
}
}  // namespace

AvRelayReceiver::AvRelayReceiver(net::Network& net, net::NodeId node)
    : net_(net), node_(node) {}

AvRelayReceiver::~AvRelayReceiver() {
  if (started_) {
    if (net::Node* n = net_.node(node_)) n->unbind(kAvRelayPort);
  }
}

Status AvRelayReceiver::start() {
  net::Node* n = net_.node(node_);
  if (n == nullptr) return not_found("av relay: no such node");
  auto status =
      n->bind(kAvRelayPort, [this](net::Endpoint, const Bytes& data) {
        BufReader r(data);
        auto stream_id = r.u32();
        auto seq = r.u64();
        if (!stream_id.is_ok() || !seq.is_ok()) return;
        auto it = streams_.find(stream_id.value());
        if (it == streams_.end()) return;
        ++frames_received_;
        if (seq.value() > it->second.next_seq) {
          frames_lost_ += seq.value() - it->second.next_seq;
        }
        it->second.next_seq = seq.value() + 1;
        Bytes frame(data.begin() + static_cast<std::ptrdiff_t>(r.pos()),
                    data.end());
        it->second.sink(seq.value(), frame);
      });
  if (!status.is_ok()) return status;
  started_ = true;
  return Status::ok();
}

void AvRelayReceiver::open_stream(std::uint32_t stream_id, FrameSink sink) {
  streams_[stream_id] = Stream{std::move(sink), 0};
}

AvRelaySender::~AvRelaySender() {
  for (const auto& [id, relay] : relays_) {
    bus_.unlisten_channel(relay.channel, relay.listener);
  }
}

Status AvRelaySender::relay(net::IsoChannel channel, net::Endpoint receiver,
                            std::uint32_t stream_id) {
  if (relays_.count(stream_id) != 0) {
    return already_exists("stream id in use: " + std::to_string(stream_id));
  }
  relays_[stream_id] = Relay{channel, receiver, 0, 0};
  relays_[stream_id].listener = bus_.listen_channel(
      channel, [this, stream_id](net::IsoChannel, const Bytes& payload) {
        auto it = relays_.find(stream_id);
        if (it == relays_.end()) return;
        ++frames_relayed_;
        net_.send_datagram({node_, kAvRelayPort}, it->second.receiver,
                           pack(stream_id, it->second.next_seq++, payload));
      });
  return Status::ok();
}

void AvRelaySender::stop(std::uint32_t stream_id) {
  auto it = relays_.find(stream_id);
  if (it == relays_.end()) return;
  bus_.unlisten_channel(it->second.channel, it->second.listener);
  relays_.erase(it);
}

}  // namespace hcm::core
