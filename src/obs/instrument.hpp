// Glue for instrumenting the framework's async callback style: decorate
// an InvokeResultFn so that completion (whenever it fires, on whatever
// virtual-time tick) records the operation's latency, counts errors,
// and closes the hop's span.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/service.hpp"
#include "obs/metrics.hpp"
#include "obs/slab.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"

namespace hcm::obs {

// What observe_completion puts in front of a completion: 40 trivially
// copyable bytes, small enough to ride in the spare room of the
// completion's own buffer (SmallFn::decorate), so observing a hop costs
// no heap cell.
struct CompletionObserver {
  sim::Scheduler* sched;
  Histogram* latency;
  Counter* errors;
  std::uint64_t span_id;
  sim::SimTime start;

  void operator()(const Result<Value>& r) const {
    latency->observe(sched->now() - start);
    if (!r.is_ok() && errors != nullptr) errors->inc();
    Tracer::global().end_span(span_id, sched->now(), r.is_ok());
  }
};

// Returns `done` decorated so that completion: observes (now - start)
// into `latency`, increments `errors` on a failed result (if non-null),
// ends `span_id` on the global tracer (no-op when 0), then runs what
// `done` ran.
inline InvokeResultFn observe_completion(sim::Scheduler& sched,
                                         Histogram& latency, Counter* errors,
                                         std::uint64_t span_id,
                                         InvokeResultFn done) {
  done.decorate(
      CompletionObserver{&sched, &latency, errors, span_id, sched.now()});
  return done;
}

// The "adapter.<mw>.*" metric handles and span labels of one adapter,
// resolved once when the adapter is built so an invoke neither builds
// metric names nor looks them up.
struct InvokeMetrics {
  explicit InvokeMetrics(const std::string& mw)
      : span_prefix(mw + ".invoke:"),
        component("adapter." + mw),
        invokes(shard_registry().counter(component + ".invokes")),
        errors(shard_registry().counter(component + ".errors")),
        latency(shard_registry().histogram(component + ".invoke_us")) {}

  std::string span_prefix;  // "<mw>.invoke:"
  std::string component;    // "adapter.<mw>"
  Counter& invokes;
  Counter& errors;
  Histogram& latency;
};

// One native adapter invoke. Construction counts
// "adapter.<mw>.invokes" and, when tracing is on, opens an
// "<mw>.invoke:service.method" span that stays current for the
// constructor's enclosing scope (so synchronous downstream dispatch —
// server proxies, VSG calls — nests under it); wrap() returns a
// completion that observes "adapter.<mw>.invoke_us", counts ".errors",
// and closes the span.
class ScopedInvoke {
 public:
  ScopedInvoke(sim::Scheduler& sched, InvokeMetrics& metrics,
               const std::string& service, const std::string& method)
      : sched_(sched),
        metrics_(metrics),
        span_id_(begin_span(sched, metrics, service, method)),
        scope_(Tracer::global(), Tracer::global().context_of(span_id_)) {
    metrics_.invokes.inc();
  }

  [[nodiscard]] InvokeResultFn wrap(InvokeResultFn done) {
    return observe_completion(sched_, metrics_.latency, &metrics_.errors,
                              span_id_, std::move(done));
  }

 private:
  static std::uint64_t begin_span(sim::Scheduler& sched,
                                  const InvokeMetrics& metrics,
                                  const std::string& service,
                                  const std::string& method) {
    Tracer& tracer = Tracer::global();
    if (!tracer.enabled()) return 0;
    return tracer.begin_span(
        metrics.span_prefix + service + "." + method, metrics.component,
        sched.now());
  }

  sim::Scheduler& sched_;
  InvokeMetrics& metrics_;
  std::uint64_t span_id_;
  Tracer::Scope scope_;
};

}  // namespace hcm::obs
