// Reliable ordered byte streams (TCP-like) over the simulated network.
// HTTP, the Jini call protocol, and the mail protocol run on these.
#pragma once

#include <functional>
#include <memory>

#include "common/block_stream.hpp"
#include "common/bytes.hpp"
#include "net/address.hpp"
#include "sim/scheduler.hpp"

namespace hcm::net {

class Network;
class Stream;
using StreamPtr = std::shared_ptr<Stream>;

// Payloads travel as pooled BlockStreams end-to-end: the sender renders
// into blocks, transit moves the chain (no copy), and the receiver
// splices it straight into its parser. Handlers that still want flat
// bytes call data.append_to()/to_string().
using DataHandler = std::function<void(BlockStream&& data)>;
using CloseHandler = std::function<void()>;

// One end of an established connection. Created in pairs by
// Network::connect; always held via shared_ptr.
class Stream : public std::enable_shared_from_this<Stream> {
 public:
  // Construction is internal to Network; use Network::connect.
  Stream(Network& net, Endpoint local, Endpoint remote)
      : net_(net), local_(local), remote_(remote) {}
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  [[nodiscard]] Endpoint local() const { return local_; }
  [[nodiscard]] Endpoint remote() const { return remote_; }
  [[nodiscard]] bool is_open() const { return open_; }

  // Sends bytes to the peer; delivered in FIFO order after the route's
  // transit time. Silently dropped if the stream is closed. If the
  // route has failed, the connection is reset (both ends see close).
  // The block chain itself moves to the peer.
  void send(BlockStream data);

  // Graceful close: the peer's close handler fires after transit time.
  void close();

  // Bytes that arrive before a handler is installed are buffered and
  // flushed, as one delivery in arrival order, when the handler is set.
  void set_on_data(DataHandler handler);
  void set_on_close(CloseHandler handler);

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  friend class Network;

  void deliver(BlockStream data);    // peer -> this
  void peer_closed();                // peer close/reset -> this

  Network& net_;
  Endpoint local_;
  Endpoint remote_;
  std::weak_ptr<Stream> peer_;
  bool open_ = true;
  DataHandler on_data_;
  CloseHandler on_close_;
  // Bytes that arrived before on_data_ was set, spliced into one
  // stream and handed over in a single delivery. Empty, it holds no
  // blocks and cost no allocation to construct.
  BlockStream pending_;
  bool closed_pending_ = false;      // closed before on_close_ set
  sim::SimTime clear_time_ = 0;      // FIFO ordering for our sends
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace hcm::net
