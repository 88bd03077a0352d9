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
  // teardown (LeakSanitizer runs on every asan build).
  retire_handlers();
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

// Held by the next-tick event that retire_handlers schedules, it
// clears the handlers when that event is destroyed: after it runs, or
// with a scheduler torn down before then. Either way the owner<->stream
// cycle the handlers close is broken.
struct Stream::HandlerReaper {
  explicit HandlerReaper(StreamPtr s) : stream(std::move(s)) {}
  HandlerReaper(HandlerReaper&& o) noexcept : stream(std::move(o.stream)) {}
  HandlerReaper(const HandlerReaper&) = delete;
  HandlerReaper& operator=(const HandlerReaper&) = delete;
  HandlerReaper& operator=(HandlerReaper&&) = delete;
  ~HandlerReaper() {
    if (stream) {
      stream->on_data_ = nullptr;
      stream->on_close_ = nullptr;
    }
  }
  StreamPtr stream;
};

void Stream::retire_handlers() {
  // A closed end calls neither handler again (deliver, peer_closed and
  // the setters check open_), but one may be running: close() is
  // routinely called from inside on_data. So they stay in place until
  // the next tick.
  net_.scheduler().after(
      0, [reaper = HandlerReaper(shared_from_this())] {});
}

void Stream::set_on_data(DataHandler handler) {
  if (!open_) {
    // Closed by the peer with bytes still unread: they go to this
    // handler, which is not kept (a closed end holds no handlers).
    if (handler && !pending_.empty()) {
      BlockStream data = std::move(pending_);
      handler(std::move(data));
    }
    return;
  }
  on_data_ = std::move(handler);
  if (on_data_ && !pending_.empty()) {
    // Moved out first: the handler may close() this end, which clears
    // pending_, while it still reads what it was handed.
    BlockStream data = std::move(pending_);
    on_data_(std::move(data));
  }
}

void Stream::set_on_close(CloseHandler handler) {
  if (!open_) {
    if (closed_pending_ && handler) {
      closed_pending_ = false;
      handler();  // unread bytes stay for a later set_on_data
    }
    return;
  }
  on_close_ = std::move(handler);
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
  // on_close fires) so owners captured in them are released. Bytes not
  // yet read stay buffered for a late set_on_data.
  auto handler = std::move(on_close_);
  on_close_ = nullptr;
  retire_handlers();
  if (handler) {
    handler();
  } else {
    closed_pending_ = true;
  }
}

}  // namespace hcm::net
