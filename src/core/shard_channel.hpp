// ShardChannel: routes framework-level closures to the shard that owns
// a node. The Network layer marshals *protocol* events (datagrams,
// stream deliveries) across shards; this is the same discipline one
// level up, for orchestration code (MetaMiddleware fan-out, VSR
// republication) that must run component methods on the component's
// home shard rather than wherever the caller happens to be bound.
//
// Semantics (docs/SHARDING.md):
//   - no kernel attached          -> direct call (legacy, byte-identical)
//   - caller bound to same shard  -> direct call
//   - kernel parked (setup, or a coordinator between windows) -> run
//     inline under the target shard's context, so scheduler() resolves
//     to that shard's slab
//   - running worker, other shard -> conservative cross-shard post
//     (never earlier than one lookahead out)
#pragma once

#include <functional>

#include "net/network.hpp"
#include "sim/sharded_kernel.hpp"

namespace hcm::core {

class ShardChannel {
 public:
  // Run `fn` in the context of `shard` / the shard owning `node`.
  static void run_on_shard(net::Network& net, sim::ShardId shard,
                           std::function<void()> fn);
  static void run_on_node(net::Network& net, net::NodeId node,
                          std::function<void()> fn);
};

}  // namespace hcm::core
