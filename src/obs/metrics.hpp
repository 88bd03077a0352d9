// Process-wide metrics registry: named counters, gauges and fixed-
// bucket latency histograms, the single source of truth for every
// counter the framework exposes. Instrumented objects obtain stable
// Counter&/Histogram& references at construction and keep their public
// accessors as thin reads, so existing call sites and tests are
// unchanged while the whole surface becomes introspectable through one
// snapshot (obs::ObservabilityService serves it across islands).
//
// Under the sharded kernel (docs/SHARDING.md) instrumented sites run on
// worker shards concurrently, so every metric mutation is a relaxed
// atomic and the registry maps are mutex-guarded (PCM imports create
// per-op metrics at runtime while another island may be serving an
// introspection snapshot). Relaxed ordering is deliberate: values are
// monotone telemetry, and cross-metric snapshots were never atomic even
// single-threaded. Metric values can be disabled at runtime
// (set_enabled) for overhead measurement.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/value.hpp"

namespace hcm::obs {

// Runtime switch over all metric mutation (reads always work). On by
// default: migrated counters back public accessors existing tests rely
// on. bench_ext_obs_overhead flips it for the uninstrumented arm.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

class Counter {
 public:
  void inc(std::uint64_t d = 1) {
    if (enabled()) v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }
  // Fold a quiesced source value in. Not an instrumentation site: it
  // bypasses the enabled() gate because the source value
  // was already gated when it was recorded.
  void merge_add(std::uint64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) {
    if (enabled()) v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) {
    if (enabled()) v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }
  // Quiesced fold (see Counter::merge_add). Gauges across shards are
  // summed — the framework's gauges are occupancy counts (queue depths,
  // live leases), for which per-shard sums are the fleet value.
  void merge_add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed-bucket histogram for virtual-time latencies in microseconds.
// Buckets follow a 1-2.5-5 decade ladder from 1 us to 10 s; percentile
// queries return the upper bound of the bucket holding the requested
// rank (clamped to the exact observed max), which is the usual
// fixed-bucket approximation. Mutation is lock-free (relaxed adds plus
// CAS min/max); a snapshot taken mid-observation may therefore be off
// by the in-flight sample across fields, which telemetry tolerates.
class Histogram {
 public:
  static constexpr std::array<std::int64_t, 22> kBounds = {
      1,      2,      5,       10,      25,      50,        100,     250,
      500,    1000,   2500,    5000,    10000,   25000,     50000,   100000,
      250000, 500000, 1000000, 2500000, 5000000, 10000000};

  void observe(std::int64_t v);
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t min() const {
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const {
    return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
  }
  // p in [0, 100]; p50/p95/p99 are the snapshot trio.
  [[nodiscard]] std::int64_t percentile(double p) const;
  // {count, sum, min, max, p50, p95, p99} as a ValueMap.
  [[nodiscard]] Value snapshot() const;
  void reset();
  // Quiesced fold of another histogram: bucket-wise add, count/sum add,
  // min/max combine. Because buckets are summed exactly, percentiles of
  // the merged histogram equal percentiles of the union of samples (to
  // bucket resolution) — the property the slab merge relies on.
  void merge_from(const Histogram& src);

 private:
  static constexpr std::int64_t kMinInit = INT64_MAX;
  static constexpr std::int64_t kMaxInit = INT64_MIN;
  std::array<std::atomic<std::uint64_t>, kBounds.size() + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{kMinInit};
  std::atomic<std::int64_t> max_{kMaxInit};
};

// Named-metric registry. Metrics are created on first use and live for
// the process (instances hold plain references); the same name always
// resolves to the same object. Counters, gauges and histograms occupy
// separate namespaces. Map access is mutex-guarded; the returned
// references stay valid and lock-free to use.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry every built-in instrumentation site uses.
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // nullptr when the metric was never created (lint/tests).
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  // Instance-unique scope prefix: first caller gets `base`, later ones
  // "base#2", "base#3", ... so repeated constructions (tests build many
  // homes per process) never alias each other's counters.
  std::string unique_scope(const std::string& base);

  [[nodiscard]] std::size_t size() const;

  // Snapshot of every metric whose name starts with `prefix` as a
  // ValueMap: counters/gauges map to ints, histograms to their
  // {count, sum, min, max, p50, p95, p99} maps.
  [[nodiscard]] Value to_value(const std::string& prefix = "") const;
  // Human-readable dump, one metric per line, sorted by name.
  [[nodiscard]] std::string to_text(const std::string& prefix = "") const;

  // Zeroes every value but keeps registrations (bench arms).
  void reset_values();

  // Folds every metric of `src` into this registry: counters and gauges
  // add, histograms merge bucket-wise; metrics missing here are created.
  // Both sides must be quiesced (the sharded kernel calls this at window
  // barriers, where no shard worker is mutating). Iteration order is
  // std::map order on both sides, so repeated merges of the same sources
  // produce the same registration order — part of the determinism
  // contract of the telemetry pipeline.
  void merge_from(const Registry& src);

  // Slab registries delegate unique_scope to the process root so scope
  // names stay process-unique: without this, the first "net" scope on
  // shard 0 and the first on shard 1 would alias after a merge.
  void set_scope_delegate(Registry* root) { scope_delegate_ = root; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::size_t> scopes_;
  Registry* scope_delegate_ = nullptr;
};

}  // namespace hcm::obs
