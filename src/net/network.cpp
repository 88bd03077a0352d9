#include "net/network.hpp"

#include <algorithm>
#include <queue>

#include "common/check.hpp"

namespace hcm::net {

namespace {
// Spare-list bounds, set from the four perfbench workloads (seed 1):
// - City (2 shards of 50,000 devices) peaks at 389 datagrams in flight
//   over both shards, and each shard allocates 210-252 buffers in all,
//   with or without this bound. Beyond it the list frees what callers
//   that pass fresh buffers (perfbench's report probe) keep adding.
// - The largest payload recycled on any of them is 927 B (1,340 B of
//   capacity). Bigger ones are freed on delivery: AV relay frames carry
//   a 4 KiB 1394 frame, so their sender does not draw on the list.
constexpr std::size_t kMaxSpareDatagrams = 256;
constexpr std::size_t kMaxSpareDatagramCapacity = 2048;
}  // namespace

sim::ShardId Network::current_shard() const {
  if (kernel_ == nullptr) return 0;
  const auto* ctx = sim::ShardedKernel::current();
  return ctx != nullptr && ctx->kernel == kernel_ ? ctx->shard : 0;
}

sim::Scheduler& Network::scheduler() {
  return kernel_ != nullptr ? kernel_->shard(current_shard()) : sched_;
}

void Network::set_kernel(sim::ShardedKernel* kernel) {
  HCM_CHECK_MSG(kernel == nullptr || !kernel->running(),
                "attach the kernel between runs");
  // Unbound callers use shard 0's slab, which must be the network's own.
  HCM_CHECK_MSG(kernel == nullptr || &kernel->shard(0) == &sched_,
                "the network's scheduler must be the kernel's shard 0");
  kernel_ = kernel;
  spare_datagrams_.resize(kernel != nullptr ? kernel->shards() : 1);
}

sim::ShardId Network::shard_of(NodeId node_id) const {
  if (node_id == kInvalidNode || node_id > node_shard_.size()) return 0;
  return node_shard_[node_id - 1];
}

sim::Duration Network::min_cross_shard_latency() const {
  if (kernel_ == nullptr) return 0;
  sim::Duration best = 0;
  for (const auto& seg : segments_) {
    bool cross = false;
    bool have = false;
    sim::ShardId first = 0;
    for (NodeId n : seg->nodes()) {
      const sim::ShardId s = shard_of(n);
      if (!have) {
        first = s;
        have = true;
      } else if (s != first) {
        cross = true;
        break;
      }
    }
    if (!cross) continue;
    const sim::Duration t = seg->transit_time(0);
    if (best == 0 || t < best) best = t;
  }
  return best;
}

void Network::deliver_at(NodeId dst, sim::SimTime when, sim::EventFn fn) {
  if (kernel_ == nullptr) {
    sched_.at(when, std::move(fn));
    return;
  }
  const sim::ShardId dst_shard = shard_of(dst);
  const auto* ctx = sim::ShardedKernel::current();
  const bool bound = ctx != nullptr && ctx->kernel == kernel_;
  if (bound && dst_shard == ctx->shard) {
    kernel_->shard(dst_shard).at(when, std::move(fn));
    return;
  }
  if (!kernel_->running()) {
    // Coordinator side (setup or between-window scenario drive):
    // single-threaded direct access to the destination slab.
    sim::Scheduler& ss = kernel_->shard(dst_shard);
    ss.at(std::max(when, ss.now()), std::move(fn));
    return;
  }
  // Cross-shard from a worker mid-window: enqueue through the kernel,
  // clamped to the conservative lookahead so the delivery always lands
  // after the current window's barrier.
  const sim::SimTime earliest =
      kernel_->shard(ctx->shard).now() + kernel_->lookahead();
  kernel_->post(dst_shard, std::max(when, earliest), std::move(fn));
}

void Network::deliver_to(NodeId dst, sim::Duration latency, sim::EventFn fn) {
  deliver_at(dst, scheduler().now() + latency, std::move(fn));
}

Node& Network::add_node(const std::string& name) {
  HCM_CHECK_MSG(kernel_ == nullptr || !kernel_->running(),
                "topology is frozen while the kernel runs");
  auto id = static_cast<NodeId>(nodes_.size() + 1);
  nodes_.push_back(std::make_unique<Node>(id, name));
  node_shard_.push_back(current_shard());
  return *nodes_.back();
}

Node* Network::node(NodeId id) {
  if (id == kInvalidNode || id > nodes_.size()) return nullptr;
  return nodes_[id - 1].get();
}

Node* Network::find_node(const std::string& name) {
  for (const auto& n : nodes_) {
    if (n->name() == name) return n.get();
  }
  return nullptr;
}

EthernetSegment& Network::add_ethernet(const std::string& name,
                                       sim::Duration base_latency,
                                       std::uint64_t bandwidth_bps) {
  segments_.push_back(
      std::make_unique<EthernetSegment>(name, base_latency, bandwidth_bps));
  return static_cast<EthernetSegment&>(*segments_.back());
}

Ieee1394Bus& Network::add_ieee1394(const std::string& name) {
  // scheduler(), not sched_: island media built under run_as(shard)
  // keep their bus timers (isochronous cycles, arbitration) on the
  // island's own shard.
  segments_.push_back(std::make_unique<Ieee1394Bus>(name, scheduler()));
  return static_cast<Ieee1394Bus&>(*segments_.back());
}

PowerlineSegment& Network::add_powerline(const std::string& name) {
  segments_.push_back(std::make_unique<PowerlineSegment>(name, scheduler()));
  return static_cast<PowerlineSegment&>(*segments_.back());
}

void Network::attach(Node& node, Segment& segment) {
  segment.attach(node.id());
  attachments_[node.id()].push_back(&segment);
  // New links can create shorter routes than the cached ones.
  std::unique_lock lock(route_mu_);
  route_cache_.clear();
}

Result<Network::RoutePtr> Network::find_route(NodeId a, NodeId b) {
  Node* na = node(a);
  Node* nb = node(b);
  if (na == nullptr || nb == nullptr) return not_found("no such node");
  if (!na->is_up()) return unavailable(na->name() + " is down");
  if (!nb->is_up()) return unavailable(nb->name() + " is down");
  if (a == b) return loopback_route_;

  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  {
    std::shared_lock lock(route_mu_);
    auto it = route_cache_.find(key);
    if (it != route_cache_.end()) {
      const Route& r = *it->second;
      bool valid = true;
      for (const Segment* seg : r.path) {
        if (!seg->is_up()) {
          valid = false;
          break;
        }
      }
      for (NodeId hop : r.via) {
        Node* nn = node(hop);
        if (nn == nullptr || !nn->is_up()) {
          valid = false;
          break;
        }
      }
      if (valid) return it->second;
    }
  }

  // BFS over nodes; edges are up segments.
  std::map<NodeId, std::pair<NodeId, Segment*>> parent;  // node -> (prev, via)
  std::queue<NodeId> frontier;
  frontier.push(a);
  parent[a] = {kInvalidNode, nullptr};
  while (!frontier.empty()) {
    NodeId cur = frontier.front();
    frontier.pop();
    auto it = attachments_.find(cur);
    if (it == attachments_.end()) continue;
    for (Segment* seg : it->second) {
      if (!seg->is_up()) continue;
      for (NodeId next : seg->nodes()) {
        if (parent.count(next) != 0) continue;
        Node* nn = node(next);
        if (nn == nullptr || !nn->is_up()) continue;
        parent[next] = {cur, seg};
        if (next == b) {
          auto route = std::make_shared<Route>();
          for (NodeId hop = b; hop != a; hop = parent[hop].first) {
            route->path.push_back(parent[hop].second);
            if (hop != b) route->via.push_back(hop);
          }
          std::reverse(route->path.begin(), route->path.end());
          std::unique_lock lock(route_mu_);
          route_cache_[key] = route;  // replaces a stale entry, if any
          return RoutePtr(route);
        }
        frontier.push(next);
      }
    }
  }
  return unavailable("no route from " + na->name() + " to " + nb->name());
}

sim::Duration Network::path_latency(const Route& r, std::size_t bytes) {
  if (r.path.empty()) return sim::microseconds(10);  // loopback
  sim::Duration total = 0;
  for (const Segment* seg : r.path) total += seg->transit_time(bytes);
  // Per-hop forwarding cost at intermediate gateways.
  if (r.path.size() > 1) {
    total += static_cast<sim::Duration>(r.path.size() - 1) *
             sim::microseconds(50);
  }
  return total;
}

void Network::account_path(const Route& r, std::size_t bytes) {
  for (Segment* seg : r.path) seg->account(bytes);
}

Result<sim::Duration> Network::route_latency(NodeId a, NodeId b,
                                             std::size_t bytes) {
  auto route = find_route(a, b);
  if (!route.is_ok()) return route.status();
  return path_latency(*route.value(), bytes);
}

Bytes Network::datagram_buffer() {
  auto& spare = spare_datagrams_[current_shard()];
  if (spare.empty()) return {};
  Bytes buf = std::move(spare.back());
  spare.pop_back();
  return buf;
}

void Network::recycle_datagram(Bytes&& buf) {
  auto& spare = spare_datagrams_[current_shard()];
  if (buf.capacity() == 0 || buf.capacity() > kMaxSpareDatagramCapacity ||
      spare.size() >= kMaxSpareDatagrams) {
    return;
  }
  buf.clear();
  spare.push_back(std::move(buf));
}

void Network::send_datagram(Endpoint from, Endpoint to, Bytes data) {
  datagrams_sent_.inc();
  auto route = find_route(from.node, to.node);
  if (!route.is_ok()) {
    datagrams_dropped_.inc();
    recycle_datagram(std::move(data));
    return;
  }
  // Per-segment random loss, sampled from the sending shard's RNG so
  // each shard's stream stays deterministic.
  for (const Segment* seg : route.value()->path) {
    if (seg->drop_probability() > 0.0) {
      std::uniform_real_distribution<double> dist(0.0, 1.0);
      if (dist(scheduler().rng()) < seg->drop_probability()) {
        datagrams_dropped_.inc();
        recycle_datagram(std::move(data));
        return;
      }
    }
  }
  account_path(*route.value(), data.size());
  auto latency = path_latency(*route.value(), data.size());
  deliver_to(to.node, latency,
             [this, from, to, data = std::move(data)]() mutable {
               Node* dst = node(to.node);
               const DatagramHandler* handler =
                   dst != nullptr && dst->is_up()
                       ? dst->datagram_handler(to.port)
                       : nullptr;
               if (handler != nullptr && *handler) {
                 (*handler)(from, data);
               } else {
                 datagrams_dropped_.inc();
               }
               recycle_datagram(std::move(data));
             });
}

void Network::join_group(NodeId node_id, GroupId group) {
  std::lock_guard<std::mutex> lk(groups_mu_);
  groups_[group].insert(node_id);
}

void Network::send_multicast(Endpoint from, GroupId group, std::uint16_t port,
                             Bytes data) {
  // Membership reads under the lock: discovery on one island may join
  // while another island's shard multicasts on its own LAN.
  std::lock_guard<std::mutex> lk(groups_mu_);
  auto git = groups_.find(group);
  if (git == groups_.end()) return;
  auto ait = attachments_.find(from.node);
  if (ait == attachments_.end()) return;
  Node* src = node(from.node);
  if (src == nullptr || !src->is_up()) return;

  // Multicast does not cross gateways: delivered only to members that
  // share an up segment with the sender (matches link-local discovery).
  // Like IP multicast with IP_MULTICAST_LOOP, the sender's own node
  // receives a copy if it joined the group.
  multicast_seen_.clear();
  auto deliver_copy = [&](NodeId member, sim::Duration latency) {
    Bytes copy = datagram_buffer();
    copy.assign(data.begin(), data.end());
    auto fn = [this, from, member, port, copy = std::move(copy)]() mutable {
      Node* dst = node(member);
      if (dst != nullptr && dst->is_up()) {
        const DatagramHandler* handler = dst->datagram_handler(port);
        if (handler != nullptr && *handler) (*handler)(from, copy);
      }
      recycle_datagram(std::move(copy));
    };
    if (member == from.node) {  // the sender's own copy: caller's scheduler
      scheduler().after(latency, std::move(fn));
    } else {
      deliver_to(member, latency, std::move(fn));
    }
  };
  if (git->second.count(from.node) != 0) {
    multicast_seen_.push_back(from.node);
    deliver_copy(from.node, sim::microseconds(10));
  }
  for (Segment* seg : ait->second) {
    if (!seg->is_up()) continue;
    for (NodeId member : seg->nodes()) {
      if (git->second.count(member) == 0) continue;
      if (std::find(multicast_seen_.begin(), multicast_seen_.end(),
                    member) != multicast_seen_.end()) {
        continue;
      }
      multicast_seen_.push_back(member);
      seg->account(data.size());
      deliver_copy(member, seg->transit_time(data.size()));
    }
  }
  recycle_datagram(std::move(data));
}

void Network::connect(NodeId from, Endpoint to, ConnectCallback cb) {
  stream_connects_.inc();
  Node* src = node(from);
  if (src == nullptr) {
    scheduler().after(0, [cb = std::move(cb)]() mutable {
      cb(not_found("no such source node"));
    });
    return;
  }
  auto route = find_route(from, to.node);
  if (!route.is_ok()) {
    scheduler().after(sim::milliseconds(1),
                      [cb = std::move(cb), status = route.status()]() mutable {
                        cb(status);
                      });
    return;
  }
  const auto rtt = 2 * path_latency(*route.value(), 40);
  const auto handshake = rtt + rtt / 2;  // SYN, SYN-ACK, ACK
  Endpoint local{from, src->next_ephemeral_port()};

  if (!cross_shard(from, to.node)) {
    // Same shard (or unsharded): keep the legacy single handshake
    // event so 1-shard traces stay byte-identical.
    auto complete = [this, local, to, cb = std::move(cb)]() mutable {
      Node* dst = node(to.node);
      Node* src2 = node(local.node);
      if (dst == nullptr || !dst->is_up() || src2 == nullptr ||
          !src2->is_up()) {
        cb(unavailable("peer unreachable during handshake"));
        return;
      }
      const AcceptHandler* acceptor = dst->listener(to.port);
      if (acceptor == nullptr || !*acceptor) {
        cb(unavailable("connection refused: " + to.to_string()));
        return;
      }
      auto client = std::make_shared<Stream>(*this, local, to);
      auto server = std::make_shared<Stream>(*this, to, local);
      client->peer_ = server;
      server->peer_ = client;
      (*acceptor)(server);
      cb(client);
    };
    static_assert(sizeof(complete) <= 64, "fits sim::EventFn inline");
    scheduler().after(handshake, std::move(complete));
    return;
  }

  // Cross-shard handshake splits by side: the accept fires on the
  // destination shard at 1 RTT (SYN arrived, SYN-ACK in flight), the
  // connect callback on the source shard at the legacy 1.5 RTT mark.
  // `rtt` is captured ahead of `cb`, which packs the closure into 64
  // bytes.
  auto accept = [this, local, to, rtt, cb = std::move(cb)]() mutable {
    Node* dst = node(to.node);
    Node* src2 = node(local.node);
    if (dst == nullptr || !dst->is_up() || src2 == nullptr ||
        !src2->is_up()) {
      deliver_to(local.node, rtt / 2, [cb = std::move(cb)]() mutable {
        cb(unavailable("peer unreachable during handshake"));
      });
      return;
    }
    const AcceptHandler* acceptor = dst->listener(to.port);
    if (acceptor == nullptr || !*acceptor) {
      deliver_to(local.node, rtt / 2,
                 [cb = std::move(cb),
                  msg = "connection refused: " + to.to_string()]() mutable {
                   cb(unavailable(msg));
                 });
      return;
    }
    auto client = std::make_shared<Stream>(*this, local, to);
    auto server = std::make_shared<Stream>(*this, to, local);
    client->peer_ = server;
    server->peer_ = client;
    (*acceptor)(server);
    deliver_to(local.node, rtt / 2,
               [cb = std::move(cb), client = std::move(client)]() mutable {
                 cb(std::move(client));
               });
  };
  static_assert(sizeof(accept) <= 64, "fits sim::EventFn inline");
  deliver_to(to.node, rtt, std::move(accept));
}

}  // namespace hcm::net
