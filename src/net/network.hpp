// The Network: owns nodes and segments, routes datagrams and streams,
// and provides segment-scoped multicast for discovery protocols.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/inline_fn.hpp"
#include "common/status.hpp"
#include "net/address.hpp"
#include "net/ieee1394.hpp"
#include "net/node.hpp"
#include "net/powerline.hpp"
#include "net/segment.hpp"
#include "net/stream.hpp"
#include "obs/metrics.hpp"
#include "obs/slab.hpp"
#include "sim/scheduler.hpp"
#include "sim/sharded_kernel.hpp"

namespace hcm::net {

// Move-only and 32 bytes, the size of the std::function it replaced:
// the handshake event that carries it still fits sim::EventFn's 64-byte
// slot, and a capture of up to 16 bytes (a weak_ptr) is stored inline.
using ConnectCallback = InlineFn<void(Result<StreamPtr>), 16>;

class Network {
 public:
  explicit Network(sim::Scheduler& sched)
      : sched_(sched),
        obs_scope_(obs::shard_registry().unique_scope("net")),
        datagrams_sent_(
            obs::shard_registry().counter(obs_scope_ + ".datagrams_sent")),
        datagrams_dropped_(obs::shard_registry().counter(
            obs_scope_ + ".datagrams_dropped")),
        stream_connects_(
            obs::shard_registry().counter(obs_scope_ + ".stream_connects")) {
  }
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // The calling context's scheduler: with a sharded kernel attached
  // and the calling thread bound to a shard (worker loop or
  // ShardedKernel::run_as), that shard's slab; otherwise the legacy
  // scheduler the Network was constructed with. Objects that capture
  // it at construction therefore live on the shard they were built
  // under (docs/SHARDING.md).
  [[nodiscard]] sim::Scheduler& scheduler();

  // --- Sharding ---------------------------------------------------------
  // Attach before building topology (nodes created earlier land on
  // shard 0). In kernel mode, construct the Network with
  // kernel.shard(0) so the legacy scheduler and shard 0 coincide
  // (checked here).
  void set_kernel(sim::ShardedKernel* kernel);
  [[nodiscard]] sim::ShardedKernel* kernel() const { return kernel_; }
  // Nodes are placed on the shard bound at add_node time; place_node
  // overrides (setup only, before the first run).
  void place_node(NodeId node, sim::ShardId shard);
  [[nodiscard]] sim::ShardId shard_of(NodeId node) const;
  [[nodiscard]] bool cross_shard(NodeId a, NodeId b) const {
    return kernel_ != nullptr && shard_of(a) != shard_of(b);
  }
  // Minimum transit time over segments spanning more than one shard —
  // the natural conservative-window lookahead. 0 when nothing crosses.
  [[nodiscard]] sim::Duration min_cross_shard_latency() const;

  // --- Topology -------------------------------------------------------
  Node& add_node(const std::string& name);
  [[nodiscard]] Node* node(NodeId id);
  [[nodiscard]] Node* find_node(const std::string& name);

  EthernetSegment& add_ethernet(const std::string& name,
                                sim::Duration base_latency,
                                std::uint64_t bandwidth_bps);
  Ieee1394Bus& add_ieee1394(const std::string& name);
  PowerlineSegment& add_powerline(const std::string& name);
  void attach(Node& node, Segment& segment);

  [[nodiscard]] const std::vector<std::unique_ptr<Segment>>& segments() const {
    return segments_;
  }

  // Transit time along the current route between two nodes, or an error
  // if no up-route exists. Multi-hop routes go through gateway nodes
  // that sit on more than one segment.
  [[nodiscard]] Result<sim::Duration> route_latency(NodeId a, NodeId b,
                                                    std::size_t bytes);

  // --- Datagrams -------------------------------------------------------
  // Unreliable: dropped when no route, no handler, node down, or the
  // segment's drop probability fires. The payload is handed back to the
  // spare list of the shard it ends on once its handler returns (or it
  // is dropped), so a sender that fills datagram_buffer() allocates
  // nothing once warm.
  void send_datagram(Endpoint from, Endpoint to, Bytes data);
  // An empty buffer for the next payload. It keeps the capacity of a
  // datagram delivered earlier on the calling shard (the same shard
  // resolution as scheduler()); empty and capacity-less when the
  // shard's spare list is.
  [[nodiscard]] Bytes datagram_buffer();

  // --- Multicast (segment-scoped, used by discovery protocols) ---------
  void join_group(NodeId node, GroupId group);
  // Delivered to every group member sharing a segment with `from`; each
  // member's copy is taken from the spare list.
  void send_multicast(Endpoint from, GroupId group, std::uint16_t port,
                      Bytes data);

  // --- Streams ----------------------------------------------------------
  // Simulates a connection handshake (1.5 RTT), then hands the accept
  // side to the listener and the connect side to `cb`, which moves
  // through the handshake event(s) and is called exactly once.
  void connect(NodeId from, Endpoint to, ConnectCallback cb);

  // Counters (backed by the obs registry under `obs_scope()`; these
  // accessors are thin reads kept for existing call sites).
  [[nodiscard]] std::uint64_t datagrams_sent() const {
    return datagrams_sent_.value();
  }
  [[nodiscard]] std::uint64_t datagrams_dropped() const {
    return datagrams_dropped_.value();
  }
  [[nodiscard]] const std::string& obs_scope() const { return obs_scope_; }

 private:
  friend class Stream;

  struct Route {
    std::vector<Segment*> path;
    std::vector<NodeId> via;  // intermediate gateway nodes, for revalidation
  };
  using RoutePtr = std::shared_ptr<const Route>;
  // BFS over the node/segment bipartite graph, up segments/nodes only.
  // Results are cached per (a, b): every send would otherwise pay the
  // BFS's map/queue heap churn. A hit revalidates that each segment and
  // gateway on the path is still up (a down element evicts and re-runs
  // BFS); failures are never cached, so a link coming back up is seen
  // immediately. Topology mutations (attach) clear the cache.
  [[nodiscard]] Result<RoutePtr> find_route(NodeId a, NodeId b);
  [[nodiscard]] sim::Duration path_latency(const Route& r, std::size_t bytes);
  void account_path(const Route& r, std::size_t bytes);

  // Shard-aware delivery: schedule fn on the shard owning dst. Legacy
  // path (no kernel / same shard) schedules on the caller's scheduler,
  // preserving byte-identical 1-shard traces; cross-shard deliveries
  // from a running worker go through the kernel's SPSC channels and
  // are never earlier than one lookahead out (conservative contract).
  void deliver_at(NodeId dst, sim::SimTime when, sim::EventFn fn);
  void deliver_to(NodeId dst, sim::Duration latency, sim::EventFn fn);

  // The calling context's shard index (0 off-kernel or unbound), which
  // picks both the scheduler slab and the spare datagram list.
  [[nodiscard]] sim::ShardId current_shard() const;
  // Parks a spent payload on the calling shard's spare list; buffers
  // past the list or capacity bound are freed instead.
  void recycle_datagram(Bytes&& buf);

  sim::Scheduler& sched_;
  sim::ShardedKernel* kernel_ = nullptr;
  std::vector<sim::ShardId> node_shard_;  // index = id - 1
  std::vector<std::unique_ptr<Node>> nodes_;  // index = id - 1
  std::vector<std::unique_ptr<Segment>> segments_;
  std::map<NodeId, std::vector<Segment*>> attachments_;
  // Route cache. Shared-locked on the send hot path (validate + copy a
  // shared_ptr), uniquely locked to insert/evict — shards route
  // concurrently, so this must be thread-safe.
  mutable std::shared_mutex route_mu_;
  std::map<std::uint64_t, RoutePtr> route_cache_;
  RoutePtr loopback_route_ = std::make_shared<Route>();
  std::mutex groups_mu_;  // join vs. multicast on other shards
  std::map<GroupId, std::set<NodeId>> groups_;
  std::vector<NodeId> multicast_seen_;  // send_multicast scratch, groups_mu_
  // Spare datagram buffers, one list per kernel shard (index 0 without
  // a kernel). Each list is only touched by its own shard's thread: a
  // buffer sent across shards is recycled where it is delivered.
  std::vector<std::vector<Bytes>> spare_datagrams_{1};
  std::string obs_scope_;
  obs::Counter& datagrams_sent_;
  obs::Counter& datagrams_dropped_;
  obs::Counter& stream_connects_;
};

}  // namespace hcm::net
