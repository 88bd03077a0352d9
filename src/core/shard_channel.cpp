#include "core/shard_channel.hpp"

#include <utility>

namespace hcm::core {

void ShardChannel::run_on_shard(net::Network& net, sim::ShardId shard,
                                std::function<void()> fn) {
  auto* kernel = net.kernel();
  if (kernel == nullptr) {
    fn();
    return;
  }
  const auto* ctx = sim::ShardedKernel::current();
  const bool bound = ctx != nullptr && ctx->kernel == kernel;
  if (bound && ctx->shard == shard) {
    fn();
    return;
  }
  if (!kernel->running()) {
    // Parked: only the coordinator executes, so binding the target
    // context and running inline is race-free and keeps setup-time
    // calls synchronous.
    kernel->run_as(shard, [&fn] { fn(); });
    return;
  }
  // Running worker on another shard: marshal through the kernel's
  // channels. post() applies the conservative >= now + lookahead clamp.
  const sim::ShardId src = bound ? ctx->shard : 0;
  kernel->post(shard, kernel->shard(src).now() + kernel->lookahead(),
               std::move(fn));
}

void ShardChannel::run_on_node(net::Network& net, net::NodeId node,
                               std::function<void()> fn) {
  run_on_shard(net, net.shard_of(node), std::move(fn));
}

}  // namespace hcm::core
