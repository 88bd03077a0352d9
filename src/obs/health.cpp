#include "obs/health.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "obs/timeseries.hpp"

namespace hcm::obs {

namespace {

constexpr std::size_t kRecentCap = 32;

bool compare(double v, HealthRule::Op op, double threshold) {
  switch (op) {
    case HealthRule::Op::kGt: return v > threshold;
    case HealthRule::Op::kGe: return v >= threshold;
    case HealthRule::Op::kLt: return v < threshold;
    case HealthRule::Op::kLe: return v <= threshold;
  }
  return false;
}

const char* op_text(HealthRule::Op op) {
  switch (op) {
    case HealthRule::Op::kGt: return ">";
    case HealthRule::Op::kGe: return ">=";
    case HealthRule::Op::kLt: return "<";
    case HealthRule::Op::kLe: return "<=";
  }
  return "?";
}

const char* kind_text(HealthRule::Kind k) {
  switch (k) {
    case HealthRule::Kind::kValue: return "value";
    case HealthRule::Kind::kRate: return "rate";
    case HealthRule::Kind::kAbsent: return "absent";
  }
  return "?";
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

// "120s" / "250ms" / "1500us" -> microseconds.
bool parse_duration(const std::string& s, sim::Duration* out) {
  std::size_t i = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  if (i == 0) return false;
  const std::int64_t n = std::strtoll(s.substr(0, i).c_str(), nullptr, 10);
  const std::string unit = s.substr(i);
  if (unit == "s") {
    *out = sim::seconds(n);
  } else if (unit == "ms") {
    *out = sim::milliseconds(n);
  } else if (unit == "us") {
    *out = sim::microseconds(n);
  } else {
    return false;
  }
  return *out > 0;
}

}  // namespace

bool glob_match(const std::string& pattern, const std::string& text) {
  // Iterative '*' matcher with single-star backtracking.
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string::npos;
  std::size_t mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kUnknown: return "unknown";
    case HealthState::kOk: return "ok";
    case HealthState::kBreach: return "breach";
  }
  return "?";
}

Value HealthTransition::to_value() const {
  return Value(ValueMap{
      {"rule", Value(rule)},
      {"from", Value(std::string(to_string(from)))},
      {"to", Value(std::string(to_string(to)))},
      {"series", Value(series)},
      {"value", Value(value)},
      {"when_us", Value(when)},
  });
}

HealthMonitor::HealthMonitor()
    : transitions_counter_(
          Registry::global().counter("obs.health.transitions")),
      breached_gauge_(Registry::global().gauge("obs.health.breached")) {}

void HealthMonitor::add_rule(HealthRule rule) {
  rules_.push_back(RuleState{std::move(rule), HealthState::kUnknown, "", 0, 0});
}

Result<HealthRule> HealthMonitor::parse_rule(const std::string& spec) {
  HealthRule rule;
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    return invalid_argument("health rule: expected '<name>: <check>'");
  }
  rule.name = trimmed(spec.substr(0, colon));
  std::string rest = trimmed(spec.substr(colon + 1));

  const std::size_t open = rest.find('(');
  const std::size_t close = rest.find(')', open == std::string::npos ? 0 : open);
  if (open == std::string::npos || close == std::string::npos) {
    return invalid_argument("health rule: expected '<kind>(<metric>...)'");
  }
  const std::string kind = trimmed(rest.substr(0, open));
  if (kind == "value") {
    rule.kind = HealthRule::Kind::kValue;
  } else if (kind == "rate") {
    rule.kind = HealthRule::Kind::kRate;
  } else if (kind == "absent") {
    rule.kind = HealthRule::Kind::kAbsent;
  } else {
    return invalid_argument("health rule: unknown kind '" + kind + "'");
  }

  // "<metric>[, window=<dur>]" between the parentheses.
  std::string inner = rest.substr(open + 1, close - open - 1);
  const std::size_t comma = inner.find(',');
  rule.metric = trimmed(comma == std::string::npos ? inner
                                                   : inner.substr(0, comma));
  if (rule.metric.empty()) {
    return invalid_argument("health rule: empty metric pattern");
  }
  if (comma != std::string::npos) {
    std::string arg = trimmed(inner.substr(comma + 1));
    const std::string prefix = "window=";
    if (arg.compare(0, prefix.size(), prefix) != 0 ||
        !parse_duration(arg.substr(prefix.size()), &rule.window)) {
      return invalid_argument("health rule: bad argument '" + arg +
                              "' (expected window=<n>{us,ms,s})");
    }
  }

  std::string tail = trimmed(rest.substr(close + 1));
  if (rule.kind == HealthRule::Kind::kAbsent) {
    if (!tail.empty()) {
      return invalid_argument("health rule: absent() takes no comparison");
    }
    return rule;
  }
  if (tail.compare(0, 2, ">=") == 0) {
    rule.op = HealthRule::Op::kGe;
    tail = trimmed(tail.substr(2));
  } else if (tail.compare(0, 2, "<=") == 0) {
    rule.op = HealthRule::Op::kLe;
    tail = trimmed(tail.substr(2));
  } else if (!tail.empty() && tail[0] == '>') {
    rule.op = HealthRule::Op::kGt;
    tail = trimmed(tail.substr(1));
  } else if (!tail.empty() && tail[0] == '<') {
    rule.op = HealthRule::Op::kLt;
    tail = trimmed(tail.substr(1));
  } else {
    return invalid_argument("health rule: expected comparison operator");
  }
  char* end = nullptr;
  rule.threshold = std::strtod(tail.c_str(), &end);
  if (tail.empty() || end == nullptr || *end != '\0') {
    return invalid_argument("health rule: bad threshold '" + tail + "'");
  }
  return rule;
}

Status HealthMonitor::add_rule_spec(const std::string& spec) {
  Result<HealthRule> rule = parse_rule(spec);
  if (!rule.is_ok()) return rule.status();
  add_rule(std::move(rule).take());
  return Status::ok();
}

void HealthMonitor::transition(RuleState& rs, HealthState to,
                               const std::string& series, double value,
                               sim::SimTime now) {
  rs.series = series;
  rs.value = value;
  if (rs.state == to) return;
  HealthTransition tr{rs.rule.name, rs.state, to, series, value, now};
  rs.state = to;
  rs.since = now;
  ++transitions_n_;
  transitions_counter_.inc();
  if (recent_.size() >= kRecentCap) {
    recent_.erase(recent_.begin());
  }
  recent_.push_back(tr);
  if (transition_fn_) transition_fn_(tr);
}

void HealthMonitor::evaluate(sim::SimTime now, const TimeSeriesRecorder& rec) {
  for (RuleState& rs : rules_) {
    const HealthRule& rule = rs.rule;
    std::vector<std::string> matches;
    rec.each_series([&](const std::string& name) {
      if (glob_match(rule.metric, name)) matches.push_back(name);
    });

    switch (rule.kind) {
      case HealthRule::Kind::kValue: {
        if (matches.empty()) break;  // unknown until the series exists
        bool breached = false;
        std::string offender;
        double worst = 0;
        for (const std::string& name : matches) {
          const auto v = rec.latest(name);
          if (!v) continue;
          const auto dv = static_cast<double>(*v);
          if (compare(dv, rule.op, rule.threshold) &&
              (!breached || std::abs(dv) > std::abs(worst))) {
            breached = true;
            offender = name;
            worst = dv;
          }
        }
        transition(rs, breached ? HealthState::kBreach : HealthState::kOk,
                   offender, worst, now);
        break;
      }
      case HealthRule::Kind::kRate: {
        if (matches.empty() || now < rule.window) break;  // no history yet
        bool evaluated = false;
        bool breached = false;
        std::string offender;
        double worst = 0;
        for (const std::string& name : matches) {
          const auto v1 = rec.latest(name);
          const auto v0 = rec.value_at(name, now - rule.window);
          if (!v1 || !v0) continue;
          evaluated = true;
          const double rate = static_cast<double>(*v1 - *v0) /
                              (static_cast<double>(rule.window) / 1e6);
          if (compare(rate, rule.op, rule.threshold) &&
              (!breached || std::abs(rate) > std::abs(worst))) {
            breached = true;
            offender = name;
            worst = rate;
          }
        }
        if (!evaluated) break;
        transition(rs, breached ? HealthState::kBreach : HealthState::kOk,
                   offender, worst, now);
        break;
      }
      case HealthRule::Kind::kAbsent: {
        if (now < rule.window) break;  // startup grace
        if (matches.empty()) {
          transition(rs, HealthState::kBreach, "", 0, now);
          break;
        }
        bool stalled = false;
        std::string offender;
        for (const std::string& name : matches) {
          const auto v1 = rec.latest(name);
          const auto v0 = rec.value_at(name, now - rule.window);
          if (v1 && v0 && *v1 - *v0 == 0) {
            stalled = true;
            offender = name;
            break;
          }
        }
        transition(rs, stalled ? HealthState::kBreach : HealthState::kOk,
                   offender, 0, now);
        break;
      }
    }
  }
  std::int64_t breached = 0;
  for (const RuleState& rs : rules_) {
    if (rs.state == HealthState::kBreach) ++breached;
  }
  breached_gauge_.set(breached);
}

HealthState HealthMonitor::overall() const {
  bool any_ok = false;
  for (const RuleState& rs : rules_) {
    if (rs.state == HealthState::kBreach) return HealthState::kBreach;
    if (rs.state == HealthState::kOk) any_ok = true;
  }
  return any_ok ? HealthState::kOk : HealthState::kUnknown;
}

HealthState HealthMonitor::rule_state(const std::string& name) const {
  for (const RuleState& rs : rules_) {
    if (rs.rule.name == name) return rs.state;
  }
  return HealthState::kUnknown;
}

Value HealthMonitor::to_value() const {
  ValueMap rules;
  for (const RuleState& rs : rules_) {
    rules[rs.rule.name] = Value(ValueMap{
        {"state", Value(std::string(to_string(rs.state)))},
        {"kind", Value(std::string(kind_text(rs.rule.kind)))},
        {"metric", Value(rs.rule.metric)},
        {"op", Value(std::string(op_text(rs.rule.op)))},
        {"threshold", Value(rs.rule.threshold)},
        {"window_us", Value(rs.rule.window)},
        {"series", Value(rs.series)},
        {"value", Value(rs.value)},
        {"since_us", Value(rs.since)},
    });
  }
  ValueList recent;
  for (const HealthTransition& tr : recent_) {
    recent.push_back(tr.to_value());
  }
  ValueMap out;
  out.emplace("state", std::string(to_string(overall())));
  out.emplace("transitions", static_cast<std::int64_t>(transitions_n_));
  out.emplace("rules", std::move(rules));
  out.emplace("recent", std::move(recent));
  return Value(std::move(out));
}

}  // namespace hcm::obs
