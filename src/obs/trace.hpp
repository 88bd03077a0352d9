// Cross-island causal tracing. A TraceContext (trace id, span id,
// parent span id) travels with every invocation: in-process via the
// Tracer's current-context slot (Scope RAII), across the wire inside a
// SOAP <hcm:Trace> header or the binary channel's traced frame header.
// Each hop records a Span keyed to sim-scheduler virtual time, and the
// whole trace exports as Chrome trace_event JSON (load via
// chrome://tracing or https://ui.perfetto.dev).
//
// Tracing is off by default: span ids are allocated from a process
// counter, so leaving it on would let unrelated tests perturb each
// other's exports. It is deterministic whenever the run is — ids come
// from the counter and timestamps from virtual time, never from the
// wall clock.
//
// Shard safety (docs/SHARDING.md): the current-context slot is
// thread-local — each shard worker carries its own dispatch context,
// which is exactly the "synchronous dispatch segment" the Scope RAII
// models — while the span table and id counter are mutex-guarded so
// instrumented wire paths on different shards can record concurrently.
// Span-id allocation order across shards is scheduling-dependent, so
// leave tracing off during runs that are audited for bit-identical
// traces at >1 shard (the hot-path check is one relaxed atomic load).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace hcm::obs {

// 0 means "unset" for every id field.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  [[nodiscard]] bool valid() const { return trace_id != 0 && span_id != 0; }
};

struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::string name;
  std::string component;  // maps to the Chrome trace "thread" row
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  bool open = true;
  bool ok = true;
};

class Tracer {
 public:
  // Default span-buffer cap: ~26 MB of spans at ~100 B each. Soak runs
  // keep tracing on and rely on the cap + spans_dropped counter instead
  // of unbounded growth.
  static constexpr std::size_t kDefaultMaxSpans = 262'144;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& global();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  // Enabling also installs the logging context provider so log lines
  // carry "trace=<hex> span=<hex>" while a context is in scope.
  void set_enabled(bool on);

  // Starts a span as a child of the current context (or a new trace if
  // none is current). Returns the span id; 0 when tracing is disabled
  // or the span buffer is at its cap (the drop is counted in
  // obs.trace.spans_dropped and dropped_spans()).
  std::uint64_t begin_span(const std::string& name,
                           const std::string& component, sim::SimTime now);
  void end_span(std::uint64_t span_id, sim::SimTime now, bool ok = true);

  // Span-buffer bound; 0 = unbounded. Spans beyond the cap are dropped
  // at begin_span (callers see span id 0, which every consumer already
  // treats as "not traced").
  void set_max_spans(std::size_t n);
  [[nodiscard]] std::size_t max_spans() const;
  [[nodiscard]] std::uint64_t dropped_spans() const;

  [[nodiscard]] const TraceContext& current() const { return tls_current(); }
  // Context a wire hop should carry for the given span (its child
  // frame): {trace, span} of that span. Zero context if unknown.
  [[nodiscard]] TraceContext context_of(std::uint64_t span_id) const;

  // RAII current-context swap for the duration of a synchronous
  // dispatch segment. The slot is thread-local, so nested Scopes on
  // different shard workers never interleave.
  class Scope {
   public:
    Scope(Tracer& tracer, const TraceContext& ctx) : saved_(tls_current()) {
      (void)tracer;
      tls_current() = ctx;
    }
    ~Scope() { tls_current() = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceContext saved_;
  };

  // Snapshot/readout APIs: call from a quiesced state (between kernel
  // windows or after a run) — the reference stays owned by the tracer.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t span_count() const;
  // Drops recorded spans and resets id allocation + current context.
  void clear();

  // Chrome trace_event JSON ("X" complete events, ts in virtual µs,
  // one tid per component with thread_name metadata). trace_id == 0
  // exports every recorded span.
  [[nodiscard]] std::string export_chrome(std::uint64_t trace_id = 0) const;
  [[nodiscard]] bool write_chrome(const std::string& path,
                                  std::uint64_t trace_id = 0) const;

 private:
  // The calling thread's (shard's) in-flight dispatch context.
  [[nodiscard]] static TraceContext& tls_current();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards next_id_ + spans_ + max_spans_
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::size_t max_spans_ = kDefaultMaxSpans;
  std::uint64_t dropped_ = 0;
  Counter& dropped_counter_;  // obs.trace.spans_dropped (global registry)
};

}  // namespace hcm::obs
