// Determinism auditor: records the scheduler's (time, event-id)
// dispatch sequence as a running 64-bit hash. Two runs of the same
// scenario with the same seed must produce identical hashes; any
// divergence means nondeterminism crept into the kernel or the code on
// top of it (unordered-container iteration order leaking into event
// scheduling, wall-clock reads, data races under future threading).
// tests/sim/determinism_test.cpp pins this contract on the fig4
// Jini<->X10 scenario; docs/CORRECTNESS.md states the rules.
#pragma once

#include <cstdint>

#include "common/fnv.hpp"
#include "sim/scheduler.hpp"

namespace hcm::sim {

// FNV-1a over each mixed u64's little-endian bytes — stable across
// platforms and runs by construction.
class TraceHash {
 public:
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash_ = fnv1a_byte(hash_, static_cast<std::uint8_t>(x >> (i * 8)));
    }
  }

  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnv1aOffset;
};

// Attaches to a Scheduler (via Scheduler::set_trace) on construction
// and detaches on destruction. At most one recorder per scheduler.
class TraceRecorder {
 public:
  explicit TraceRecorder(Scheduler& sched);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Hash over every (time, id) dispatch observed so far.
  [[nodiscard]] std::uint64_t digest() const { return hash_.digest(); }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  // Virtual time of the last dispatch observed (0 if none yet).
  [[nodiscard]] SimTime last_time() const { return last_time_; }

 private:
  Scheduler& sched_;
  TraceHash hash_;
  std::uint64_t events_ = 0;
  SimTime last_time_ = 0;
};

}  // namespace hcm::sim
