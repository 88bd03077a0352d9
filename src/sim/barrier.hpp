// Reusable epoch barrier for the sharded kernel's window loop. The
// coordinator opens an epoch (one epoch = one conservative time
// window), every worker runs its shard's slab scheduler up to the
// window end and arrives, and the coordinator waits for all arrivals
// before draining the cross-shard queues single-threaded.
//
// Mutex + condvar rather than atomic spinning: windows are milliseconds
// of virtual time and typically thousands of events, so wakeup latency
// is noise, and blocked workers must yield the core on machines with
// fewer cores than shards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/check.hpp"

namespace hcm::sim {

class WindowBarrier {
 public:
  explicit WindowBarrier(std::size_t parties) : parties_(parties) {}
  WindowBarrier(const WindowBarrier&) = delete;
  WindowBarrier& operator=(const WindowBarrier&) = delete;

  // Coordinator: publish a new epoch and wake every worker. Any state
  // the coordinator wrote before the call (window end, injected
  // events) is visible to workers via the mutex hand-off.
  void open_epoch() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      HCM_CHECK_MSG(arrived_ == 0, "previous epoch still in flight");
      ++epoch_;
    }
    cv_start_.notify_all();
  }

  // Coordinator: block until every worker has arrived, then reset the
  // arrival count for the next epoch.
  void wait_all_arrived() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return arrived_ == parties_; });
    arrived_ = 0;
  }

  // Worker: block until an epoch newer than `last_seen` opens (returns
  // its number) or the barrier is stopped (returns 0).
  [[nodiscard]] std::uint64_t await_epoch(std::uint64_t last_seen) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_start_.wait(lk, [&] { return stop_ || epoch_ != last_seen; });
    return stop_ ? 0 : epoch_;
  }

  // Worker: report this epoch's shard work done.
  void arrive() {
    bool all = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      HCM_CHECK(arrived_ < parties_);
      all = ++arrived_ == parties_;
    }
    if (all) cv_done_.notify_one();
  }

  // Coordinator (destruction path): release every worker permanently.
  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_start_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

}  // namespace hcm::sim
