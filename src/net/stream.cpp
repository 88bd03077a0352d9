#include "net/stream.hpp"

#include "net/network.hpp"

namespace hcm::net {

void Stream::send(BlockStream data) {
  if (!open_ || data.empty()) return;
  bytes_sent_ += data.size();
  auto route = net_.find_route(local_.node, remote_.node);
  auto peer = peer_.lock();
  auto& sched = net_.scheduler();
  if (!route.is_ok() || !peer) {
    // Route failed mid-connection: reset both ends. When the peer
    // lives on another shard its reset must travel through the
    // shard-aware channel; same-shard keeps the legacy single event.
    auto self = shared_from_this();
    if (peer && net_.cross_shard(local_.node, remote_.node)) {
      sched.after(sim::milliseconds(1), [self] { self->peer_closed(); });
      net_.deliver_to(remote_.node, sim::milliseconds(1),
                      [peer] { peer->peer_closed(); });
    } else {
      sched.after(sim::milliseconds(1), [self, peer] {
        self->peer_closed();
        if (peer) peer->peer_closed();
      });
    }
    return;
  }
  net_.account_path(*route.value(), data.size());
  auto latency = net_.path_latency(*route.value(), data.size());
  // FIFO: never deliver before previously sent data in this direction.
  auto arrival = sched.now() + latency;
  if (arrival <= clear_time_) arrival = clear_time_ + 1;
  clear_time_ = arrival;
  net_.deliver_at(remote_.node, arrival,
                  [peer, data = std::move(data)]() mutable {
                    if (peer) peer->deliver(std::move(data));
                  });
}

void Stream::close() {
  if (!open_) return;
  open_ = false;
  // A closed end receives no further callbacks, so the handlers are
  // dropped; they are what owners capture themselves into, and keeping
  // them would keep the owner<->stream reference cycle alive past
  // teardown (LeakSanitizer runs on every asan build). close() is
  // routinely called from inside on_data, so the closures must not be
  // destroyed while one of them is executing — they are parked in a
  // shared graveyard (the scheduler may copy the event closure, which
  // must not deep-copy and then free the live handler) and die next
  // tick.
  auto graveyard = std::make_shared<std::pair<DataHandler, CloseHandler>>(
      std::move(on_data_), std::move(on_close_));
  net_.scheduler().after(0, [graveyard] {});
  on_data_ = nullptr;
  on_close_ = nullptr;
  pending_.clear();
  auto peer = peer_.lock();
  if (!peer) return;
  auto latency =
      net_.route_latency(local_.node, remote_.node, 40).value_or(
          sim::milliseconds(1));
  auto arrival = net_.scheduler().now() + latency;
  if (arrival <= clear_time_) arrival = clear_time_ + 1;
  clear_time_ = arrival;
  net_.deliver_at(remote_.node, arrival, [peer] { peer->peer_closed(); });
}

void Stream::set_on_data(DataHandler handler) {
  on_data_ = std::move(handler);
  if (on_data_ && !pending_.empty()) {
    // Moved out first: the handler may close() this end, which clears
    // pending_, while it still reads what it was handed.
    BlockStream data = std::move(pending_);
    on_data_(std::move(data));
  }
}

void Stream::set_on_close(CloseHandler handler) {
  on_close_ = std::move(handler);
  if (closed_pending_ && on_close_) {
    closed_pending_ = false;
    on_close_();
  }
}

void Stream::deliver(BlockStream data) {
  if (!open_) return;
  Node* self_node = net_.node(local_.node);
  if (self_node == nullptr || !self_node->is_up()) return;
  bytes_received_ += data.size();
  if (on_data_) {
    on_data_(std::move(data));
  } else {
    pending_.splice(std::move(data));
  }
}

void Stream::peer_closed() {
  if (!open_) return;
  open_ = false;
  // Same as close(): once closed, drop the handlers (after the final
  // on_close fires) so owners captured in them are released; deferred
  // destruction for the same reentrancy reason.
  auto handler = std::move(on_close_);
  on_close_ = nullptr;
  auto graveyard = std::make_shared<DataHandler>(std::move(on_data_));
  net_.scheduler().after(0, [graveyard] {});
  on_data_ = nullptr;
  pending_.clear();
  if (handler) {
    handler();
  } else {
    closed_pending_ = true;
  }
}

}  // namespace hcm::net
