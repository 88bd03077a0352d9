#include "common/block_pool.hpp"

#include <cstdlib>
#include <new>

#include "common/check.hpp"

namespace hcm {

namespace {

// Lane stickiness: each thread draws a round-robin cookie on first
// acquire so concurrent threads spread across lanes but a single
// thread (the common case: one shard worker per pool) always reuses
// the same lane and its freelist stays cache-warm. Which lane a thread
// gets depends on thread start order.
// hcm:allow(static-atomic-counter): assigns pool lanes, ROADMAP 3(b) suspect
std::atomic<std::uint32_t> g_lane_cookie{0};
thread_local std::uint32_t t_lane = UINT32_MAX;

// Thread-local pool binding + injected shard resolver (see header).
thread_local BlockPool* t_bound_pool = nullptr;
std::atomic<PoolResolver> g_resolver{nullptr};

BlockHeader* new_block() {
  void* raw = ::operator new(BlockPool::kBlockBytes);
  return new (raw) BlockHeader{};
}

}  // namespace

BlockPool::BlockPool() : BlockPool(Config{}) {}

BlockPool::BlockPool(Config cfg) : cfg_(cfg) {
  if (cfg_.lanes == 0) cfg_.lanes = 1;
  if (cfg_.max_blocks < cfg_.lanes) cfg_.max_blocks = cfg_.lanes;
  lane_cap_ = cfg_.max_blocks / cfg_.lanes;
  lanes_ = std::make_unique<Lane[]>(cfg_.lanes);
}

BlockPool::~BlockPool() {
  HCM_CHECK_MSG(in_use_.load(std::memory_order_relaxed) == 0,
                "BlockPool destroyed with blocks still in use");
  for (std::uint32_t i = 0; i < cfg_.lanes; ++i) {
    BlockHeader* b = lanes_[i].free;
    while (b != nullptr) {
      BlockHeader* next = b->next;
      b->~BlockHeader();
      ::operator delete(b);
      b = next;
    }
  }
}

BlockHeader* BlockPool::acquire() {
  if (t_lane == UINT32_MAX) {
    t_lane = g_lane_cookie.fetch_add(1, std::memory_order_relaxed);
  }
  Lane& lane = lanes_[t_lane % cfg_.lanes];
  BlockHeader* b = nullptr;
  bool fallback = false;
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    if (lane.free != nullptr) {
      b = lane.free;
      lane.free = b->next;
      ++lane.hits;
    } else if (lane.pooled < lane_cap_) {
      ++lane.pooled;
      ++lane.fresh;
    } else {
      ++lane.fallbacks;
      fallback = true;
    }
  }
  if (b == nullptr) {
    b = new_block();
    if (!fallback) {
      b->owner = this;
      b->lane = t_lane % cfg_.lanes;
    }
  }
  b->next = nullptr;
  b->used = 0;
  if (!fallback) {
    const std::uint64_t now =
        in_use_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t high = high_water_.load(std::memory_order_relaxed);
    while (now > high && !high_water_.compare_exchange_weak(
                             high, now, std::memory_order_relaxed)) {
    }
  }
  return b;
}

void BlockPool::release(BlockHeader* b) {
  if (b == nullptr) return;
  if (b->owner != nullptr) {
    b->owner->release_pooled(b);
    return;
  }
  b->~BlockHeader();
  ::operator delete(b);
}

void BlockPool::release_pooled(BlockHeader* b) {
  in_use_.fetch_sub(1, std::memory_order_relaxed);
  Lane& lane = lanes_[b->lane];
  std::lock_guard<std::mutex> lock(lane.mu);
  b->next = lane.free;
  lane.free = b;
}

BlockPool::Stats BlockPool::stats() const {
  Stats s;
  s.blocks_in_use = in_use_.load(std::memory_order_relaxed);
  s.high_water = high_water_.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < cfg_.lanes; ++i) {
    Lane& lane = lanes_[i];
    std::lock_guard<std::mutex> lock(lane.mu);
    s.pooled_blocks += lane.pooled;
    s.pool_hits += lane.hits;
    s.fresh_blocks += lane.fresh;
    s.heap_fallbacks += lane.fallbacks;
  }
  return s;
}

BlockPool& wire_pool() {
  if (t_bound_pool != nullptr) return *t_bound_pool;
  if (PoolResolver r = g_resolver.load(std::memory_order_acquire)) {
    if (BlockPool* p = r()) return *p;
  }
  return default_block_pool();
}

BlockPool* bind_thread_block_pool(BlockPool* pool) {
  BlockPool* prev = t_bound_pool;
  t_bound_pool = pool;
  return prev;
}

void set_pool_resolver(PoolResolver resolver) {
  g_resolver.store(resolver, std::memory_order_release);
}

BlockPool& default_block_pool() {
  // The process-wide fallback arena; its freelist lanes are mutex-
  // sharded, so cross-shard use is safe — shard workers get their own
  // pools via the resolver instead.
  // hcm:allow(shard-static-local): mutex-sharded fallback arena
  static BlockPool pool;
  return pool;
}

}  // namespace hcm
