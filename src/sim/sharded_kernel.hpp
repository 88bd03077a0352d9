// Sharded parallel simulation kernel: N slab Schedulers (one per
// worker shard) advanced in lock step through conservative time
// windows (docs/SHARDING.md).
//
// The synchronization model is classic conservative PDES. All shards
// share a global floor F; each window runs every shard independently
// from F to W = F + L, where the lookahead L is the minimum
// cross-shard link latency of the scenario (the backbone Ethernet
// latency in the smart-home testbeds). A cross-shard delivery sent at
// time t carries latency >= L, so it arrives at t + latency > W and
// can never land inside the window that produced it — shards need no
// mid-window communication at all. Deliveries are enqueued on
// per-ordered-shard-pair SPSC rings and drained by the coordinator at
// the window barrier in fixed (src, dst) order, which keeps the fig. 4
// trace-hash audit bit-identical across runs at any fixed shard count.
//
// A 1-shard kernel spawns no threads and drives shard 0's Scheduler
// directly (step-for-step the same dispatch sequence as the legacy
// single-threaded kernel), so `shards=1` is byte-identical to today's
// behavior by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/barrier.hpp"
#include "sim/scheduler.hpp"
#include "sim/spsc_queue.hpp"

namespace hcm::sim {

using ShardId = std::uint32_t;

struct ShardedKernelOptions {
  ShardId shards = 1;
  // Conservative window length. Must be <= the minimum cross-shard
  // delivery latency; scenario builders tighten it via set_lookahead
  // once the topology (and thus the real minimum) is known.
  Duration lookahead = milliseconds(5);
  // Per ordered shard pair; overruns spill to a vector drained at the
  // same barrier (FIFO order preserved).
  std::size_t channel_capacity = 1024;
};

class ShardedKernel {
 public:
  explicit ShardedKernel(ShardedKernelOptions options = {});
  ~ShardedKernel();
  ShardedKernel(const ShardedKernel&) = delete;
  ShardedKernel& operator=(const ShardedKernel&) = delete;

  [[nodiscard]] ShardId shards() const {
    return static_cast<ShardId>(shards_.size());
  }
  [[nodiscard]] Scheduler& shard(ShardId s) { return shards_[s]->sched; }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }
  void set_lookahead(Duration d);  // between runs only
  [[nodiscard]] SimTime now() const { return floor_; }
  [[nodiscard]] bool running() const { return running_; }

  // Seeds shard 0 with exactly `s` (keeping 1-shard runs identical to
  // a legacy `Scheduler::seed(s)` run) and shard i>0 with a splitmix64
  // derivation so shard streams are decorrelated but reproducible.
  void seed(std::uint64_t s);

  // --- shard context ----------------------------------------------------
  // Worker loops (and run_as) publish which shard the calling thread is
  // executing; shard-aware layers (net::Network::scheduler) read it to
  // route work to the caller's own slab.
  struct Context {
    ShardedKernel* kernel;
    ShardId shard;
  };
  [[nodiscard]] static const Context* current();
  [[nodiscard]] ShardId current_shard() const;

  // Run fn with the calling thread bound to shard s, then restore the
  // previous binding. The way scenario code drives island objects from
  // the coordinator thread between windows: timers and sends issued
  // inside land on the island's own shard. Must not be used while a
  // parallel window is in flight.
  template <typename Fn>
  void run_as(ShardId s, Fn&& fn) {
    HCM_CHECK(s < shards());
    Context prev = exchange_context(Context{this, s});
    fn();
    (void)exchange_context(prev);
  }

  // --- cross-shard traffic ----------------------------------------------
  // From a worker in a window: enqueue fn to fire on shard dst at
  // absolute time `when`. Conservative contract: when must be > the
  // current window's end; deliveries that would violate it are clamped
  // to the destination clock at drain time (deterministically — the
  // clamp count is exposed so tests can pin it to zero).
  void post(ShardId dst, SimTime when, EventFn fn);
  // From the coordinator between windows: schedule directly onto dst's
  // slab (single-threaded access; no queue needed).
  void inject(ShardId dst, Duration delay, EventFn fn);

  // --- window loop -------------------------------------------------------
  // All return the number of events fired. run_until advances every
  // shard's clock to exactly t (like Scheduler::run_until); run()
  // drains until all shards and channels are empty.
  std::size_t run_until(SimTime t);
  std::size_t run_for(Duration d) { return run_until(floor_ + d); }
  std::size_t run();

  // Window-granular analogue of sim::run_until_done: runs windows until
  // done() holds at a barrier, the simulation drains, or max_windows
  // elapse. At 1 shard this steps event-at-a-time, matching the legacy
  // helper exactly.
  template <typename Pred>
  std::size_t run_until_done(Pred&& done, std::size_t max_windows = 200'000) {
    if (shards() == 1) {
      std::size_t n = 0;
      run_as(0, [&] { n = sim::run_until_done(shard(0), done); });
      floor_ = shard(0).now();
      if (window_hook_) window_hook_(floor_);
      return n;
    }
    std::size_t fired = 0;
    for (std::size_t w = 0; w < max_windows && !done(); ++w) {
      const SimTime next = earliest_pending();
      if (next == kNoEventTime) break;
      const SimTime start = next > floor_ + 1 ? next - 1 : floor_;
      fired += run_window(start + lookahead_);
    }
    return fired;
  }

  // --- window hook --------------------------------------------------------
  // Called on the coordinator thread after every window barrier (all
  // channels drained, floor advanced, no worker in flight) with the new
  // floor, and at the equivalent quiesced points of the 1-shard
  // direct-drive paths. obs::TimeSeriesRecorder hangs its merged-slab
  // sampling off this; the hook stays a generic callback because sim
  // must not include obs (layering). At most one hook; an empty
  // std::function detaches. Hooks must not schedule events or mutate
  // simulation state — they are observers of the quiesced barrier state.
  using WindowHook = std::function<void(SimTime floor)>;
  void set_window_hook(WindowHook hook) { window_hook_ = std::move(hook); }

  // --- introspection ------------------------------------------------------
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }
  [[nodiscard]] std::uint64_t cross_shard_posts() const {
    return cross_posts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overflow_posts() const {
    return overflow_posts_.load(std::memory_order_relaxed);
  }
  // Deliveries whose requested time had already passed on the
  // destination shard at drain (lookahead-contract violations absorbed
  // deterministically).
  [[nodiscard]] std::uint64_t clamped_deliveries() const { return clamped_; }
  [[nodiscard]] std::uint64_t events_processed() const;
  // Wall-clock nanoseconds each shard spent executing events since
  // construction — the parallel-efficiency metric for the scaling
  // bench (sum/max across shards estimates achievable speedup even on
  // core-starved CI machines).
  [[nodiscard]] std::vector<std::uint64_t> busy_ns() const;

 private:
  struct Msg {
    SimTime when = 0;
    EventFn fn;
  };

  struct Channel {
    explicit Channel(std::size_t capacity) : ring(capacity) {}
    SpscQueue<Msg> ring;
    // Spill lane: written only by the producing worker mid-window,
    // consumed only by the coordinator at the barrier (mutex-free; the
    // barrier hand-off orders the accesses). `overflowed` keeps FIFO
    // order — once a window spills, the rest of the window spills too.
    std::vector<Msg> overflow;
    bool overflowed = false;
  };

  struct Shard {
    Scheduler sched;
    std::size_t fired = 0;           // events in the current window
    std::uint64_t busy_ns = 0;       // written by its worker only
  };

  // Swap the calling thread's shard binding, returning the previous
  // one (value copy, so nested run_as restores correctly).
  static Context exchange_context(Context next);
  [[nodiscard]] Channel& channel(ShardId src, ShardId dst) {
    return *channels_[src * shards() + dst];
  }
  [[nodiscard]] SimTime earliest_pending();
  std::size_t run_window(SimTime window_end);
  void drain_channels();
  void worker_loop(ShardId s);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Channel>> channels_;  // src * N + dst
  Duration lookahead_;
  SimTime floor_ = 0;
  bool running_ = false;
  std::uint64_t windows_ = 0;
  std::uint64_t clamped_ = 0;
  WindowHook window_hook_;
  std::atomic<std::uint64_t> cross_posts_{0};
  std::atomic<std::uint64_t> overflow_posts_{0};

  // Parallel machinery (unused at 1 shard: no threads are spawned).
  WindowBarrier barrier_;
  SimTime window_end_ = 0;  // published via the barrier's mutex hand-off
  std::vector<std::thread> workers_;
};

}  // namespace hcm::sim
