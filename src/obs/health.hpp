// Declarative health/SLO monitor over recorded time series. Rules are
// threshold, rate or absence checks evaluated after every sample batch
// of the TimeSeriesRecorder; state transitions (ok <-> breach) are
// reported through a callback — MetaMiddleware forwards them into the
// cross-middleware event bridge as `healthChanged` events on the
// observability service — and the aggregate state is served by the
// `getHealth` wire op.
//
// Rule syntax (parse_rule; also accepted by bench/CI flags and quoted
// verbatim in docs/OBSERVABILITY.md §5):
//
//   <name>: value(<glob>) <op> <number>
//   <name>: rate(<glob>[, window=<dur>]) <op> <number>   # per second
//   <name>: absent(<glob>[, window=<dur>])
//
// where <glob> matches series names with '*' wildcards (any run of
// characters), <op> is one of > >= < <=, and <dur> takes a us/ms/s
// suffix (default window 10s). Examples:
//
//   drops:   rate(events.*.dropped, window=10s) > 0.5
//   p99:     value(vsg.*.op.*_us.p99) > 50000
//   stale:   absent(vsr.sync.*.rounds, window=120s)
//
// Semantics per kind, each evaluation at virtual time `now`:
//   value  — breach if ANY matching series' newest sample compares
//            true against the number; unknown while nothing matches.
//   rate   — per-second delta (newest - value at now-window) / window;
//            breach if ANY matching series' rate compares true;
//            unknown until a window of history exists.
//   absent — breach if NO series matches, or if ANY matching series
//            made no progress (delta == 0) over the window; a grace
//            period of one window applies from t=0 (liveness checks
//            should not fire before the system had a chance to act).
//
// Evaluation order is rule insertion order and series iteration is
// sorted, so health state — and the obs.health.* metrics it feeds back
// into the registry — is as deterministic as the series it watches.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/value.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace hcm::obs {

class TimeSeriesRecorder;

// '*'-wildcard match (any run of characters, including empty; no
// escapes — metric names never contain '*').
[[nodiscard]] bool glob_match(const std::string& pattern,
                              const std::string& text);

enum class HealthState { kUnknown, kOk, kBreach };
[[nodiscard]] const char* to_string(HealthState s);

struct HealthRule {
  enum class Kind { kValue, kRate, kAbsent };
  enum class Op { kGt, kGe, kLt, kLe };
  std::string name;
  std::string metric;  // series-name glob
  Kind kind = Kind::kValue;
  Op op = Op::kGt;
  double threshold = 0;
  sim::Duration window = sim::seconds(10);
};

struct HealthTransition {
  std::string rule;
  HealthState from = HealthState::kUnknown;
  HealthState to = HealthState::kUnknown;
  std::string series;  // offending series ("" for absent-no-match)
  double value = 0;    // offending value/rate at transition time
  sim::SimTime when = 0;
  // ValueMap payload as delivered on the healthChanged event.
  [[nodiscard]] Value to_value() const;
};

class HealthMonitor {
 public:
  HealthMonitor();

  void add_rule(HealthRule rule);
  // Parses the declarative syntax above.
  static Result<HealthRule> parse_rule(const std::string& spec);
  // add_rule(parse_rule(spec)); returns the parse error if any.
  Status add_rule_spec(const std::string& spec);

  void set_transition_fn(std::function<void(const HealthTransition&)> fn) {
    transition_fn_ = std::move(fn);
  }

  void evaluate(sim::SimTime now, const TimeSeriesRecorder& rec);

  [[nodiscard]] HealthState overall() const;
  [[nodiscard]] std::uint64_t transitions() const { return transitions_n_; }
  [[nodiscard]] HealthState rule_state(const std::string& name) const;

  // getHealth payload: {state, transitions, rules: {name: {state, kind,
  // metric, series, value, since_us}}, recent: [last transitions]}.
  [[nodiscard]] Value to_value() const;

 private:
  struct RuleState {
    HealthRule rule;
    HealthState state = HealthState::kUnknown;
    std::string series;        // current offender
    double value = 0;          // current offending value/rate
    sim::SimTime since = 0;    // when the current state was entered
  };

  void transition(RuleState& rs, HealthState to, const std::string& series,
                  double value, sim::SimTime now);

  std::vector<RuleState> rules_;
  std::function<void(const HealthTransition&)> transition_fn_;
  std::vector<HealthTransition> recent_;  // bounded transition log
  std::uint64_t transitions_n_ = 0;
  // Fed back into the global registry so health is itself observable
  // (and recordable — flapping shows up as a series).
  Counter& transitions_counter_;
  Gauge& breached_gauge_;
};

}  // namespace hcm::obs
