#include "sim/sharded_kernel.hpp"

#include <algorithm>
#include <chrono>

namespace hcm::sim {

namespace {

// splitmix64 — decorrelates per-shard RNG streams from one scenario
// seed without consuming the seed value itself for shard 0.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Busy-time telemetry for the scaling bench; never feeds back into
// simulation state, so determinism is unaffected.
std::uint64_t wall_ns() {
  // hcm:allow(determinism-wallclock): per-shard busy-time telemetry only
  auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

// The calling thread's shard binding. A null kernel means unbound.
thread_local ShardedKernel::Context t_ctx{nullptr, 0};

}  // namespace

ShardedKernel::ShardedKernel(ShardedKernelOptions options)
    : lookahead_(options.lookahead),
      barrier_(options.shards > 1 ? options.shards : 0) {
  HCM_CHECK_MSG(options.shards >= 1, "at least one shard");
  HCM_CHECK_MSG(options.lookahead > 0, "lookahead must be positive");
  shards_.reserve(options.shards);
  for (ShardId s = 0; s < options.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  const std::size_t n = options.shards;
  channels_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    channels_.push_back(std::make_unique<Channel>(options.channel_capacity));
  }
  if (n > 1) {
    workers_.reserve(n);
    for (ShardId s = 0; s < n; ++s) {
      workers_.emplace_back([this, s] { worker_loop(s); });
    }
  }
}

ShardedKernel::~ShardedKernel() {
  barrier_.stop();
  for (std::thread& w : workers_) w.join();
}

void ShardedKernel::set_lookahead(Duration d) {
  HCM_CHECK(!running_);
  HCM_CHECK_MSG(d > 0, "lookahead must be positive");
  lookahead_ = d;
}

void ShardedKernel::seed(std::uint64_t s) {
  shards_[0]->sched.seed(s);
  for (ShardId i = 1; i < shards(); ++i) {
    shards_[i]->sched.seed(splitmix64(s + i));
  }
}

const ShardedKernel::Context* ShardedKernel::current() {
  return t_ctx.kernel != nullptr ? &t_ctx : nullptr;
}

ShardedKernel::Context ShardedKernel::exchange_context(Context next) {
  Context prev = t_ctx;
  t_ctx = next;
  return prev;
}

ShardId ShardedKernel::current_shard() const {
  const Context* ctx = current();
  return ctx != nullptr && ctx->kernel == this ? ctx->shard : 0;
}

void ShardedKernel::post(ShardId dst, SimTime when, EventFn fn) {
  const Context* ctx = current();
  HCM_CHECK_MSG(ctx != nullptr && ctx->kernel == this,
                "post() requires the calling thread to be bound to a shard");
  HCM_CHECK(dst < shards());
  cross_posts_.fetch_add(1, std::memory_order_relaxed);
  Channel& ch = channel(ctx->shard, dst);
  Msg m{when, std::move(fn)};
  if (ch.overflowed || !ch.ring.push(std::move(m))) {
    // Keep FIFO: once a window spills, the rest of it spills too. The
    // spill lane is producer-private until the barrier hands it to the
    // coordinator, so no lock is needed.
    ch.overflowed = true;
    ch.overflow.push_back(std::move(m));
    overflow_posts_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardedKernel::inject(ShardId dst, Duration delay, EventFn fn) {
  HCM_CHECK_MSG(!running_, "inject() is coordinator-side, between windows");
  HCM_CHECK(dst < shards());
  shards_[dst]->sched.after(delay, std::move(fn));
}

SimTime ShardedKernel::earliest_pending() {
  SimTime next = kNoEventTime;
  for (const auto& sh : shards_) {
    next = std::min(next, sh->sched.next_event_time());
  }
  return next;
}

std::size_t ShardedKernel::run_window(SimTime window_end) {
  HCM_CHECK(!running_);
  HCM_CHECK(shards() > 1);
  if (window_end < floor_) window_end = floor_;
  running_ = true;
  window_end_ = window_end;  // published by open_epoch's mutex hand-off
  barrier_.open_epoch();
  barrier_.wait_all_arrived();
  running_ = false;
  std::size_t fired = 0;
  for (const auto& sh : shards_) fired += sh->fired;
  drain_channels();
  floor_ = window_end;
  ++windows_;
  if (window_hook_) window_hook_(floor_);
  return fired;
}

void ShardedKernel::drain_channels() {
  // Fixed (src, dst) order: together with per-shard determinism this
  // pins the arrival sequence numbers on every destination slab, which
  // is what makes N-shard trace hashes reproducible run to run.
  const ShardId n = shards();
  for (ShardId src = 0; src < n; ++src) {
    for (ShardId dst = 0; dst < n; ++dst) {
      Channel& ch = channel(src, dst);
      Scheduler& ss = shards_[dst]->sched;
      auto deliver = [&](Msg&& m) {
        if (m.when < ss.now()) ++clamped_;
        ss.at(m.when, std::move(m.fn));
      };
      while (auto m = ch.ring.pop()) deliver(std::move(*m));
      for (Msg& m : ch.overflow) deliver(std::move(m));
      ch.overflow.clear();
      ch.overflowed = false;
    }
  }
}

void ShardedKernel::worker_loop(ShardId s) {
  Shard& sh = *shards_[s];
  std::uint64_t seen = 0;
  for (;;) {
    const std::uint64_t epoch = barrier_.await_epoch(seen);
    if (epoch == 0) return;  // stopped
    seen = epoch;
    const SimTime end = window_end_;
    Context prev = exchange_context(Context{this, s});
    const std::uint64_t t0 = wall_ns();
    sh.fired = sh.sched.run_until(end);
    sh.busy_ns += wall_ns() - t0;
    (void)exchange_context(prev);
    barrier_.arrive();
  }
}

std::size_t ShardedKernel::run_until(SimTime t) {
  if (shards() == 1) {
    // Single shard: drive the slab directly, step-for-step identical to
    // the legacy single-threaded kernel.
    std::size_t n = 0;
    run_as(0, [&] { n = shard(0).run_until(t); });
    floor_ = std::max(floor_, t);
    if (window_hook_) window_hook_(floor_);
    return n;
  }
  std::size_t fired = 0;
  while (floor_ < t) {
    const SimTime next = earliest_pending();
    SimTime window_end;
    if (next == kNoEventTime || next > t) {
      window_end = t;  // nothing left before t: one idle hop to the end
    } else {
      // Idle fast-forward: open the window just before the next event
      // so sparse scenarios don't pay a barrier per empty lookahead.
      const SimTime start = next > floor_ + 1 ? next - 1 : floor_;
      window_end = std::min(t, start + lookahead_);
    }
    fired += run_window(window_end);
  }
  return fired;
}

std::size_t ShardedKernel::run() {
  if (shards() == 1) {
    std::size_t n = 0;
    run_as(0, [&] { n = shard(0).run(); });
    floor_ = std::max(floor_, shard(0).now());
    if (window_hook_) window_hook_(floor_);
    return n;
  }
  std::size_t fired = 0;
  for (;;) {
    const SimTime next = earliest_pending();
    if (next == kNoEventTime) break;
    const SimTime start = next > floor_ + 1 ? next - 1 : floor_;
    fired += run_window(start + lookahead_);
  }
  return fired;
}

std::uint64_t ShardedKernel::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->sched.events_processed();
  return n;
}

std::vector<std::uint64_t> ShardedKernel::busy_ns() const {
  std::vector<std::uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) out.push_back(sh->busy_ns);
  return out;
}

}  // namespace hcm::sim
