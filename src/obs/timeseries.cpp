#include "obs/timeseries.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/check.hpp"
#include "common/fnv.hpp"
#include "common/json.hpp"
#include "obs/health.hpp"

namespace hcm::obs {

namespace {

// Series-hash seed: one digit short of the FNV-1a offset basis. Pinned
// series hashes depend on it, so it stays.
constexpr std::uint64_t kSeriesSeed = 1469598103934665603ULL;

void fold_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = fnv1a_byte(h, static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void fold_str(std::uint64_t& h, const std::string& s) {
  h = fnv1a_byte(fnv1a(h, s), 0xff);  // terminator so "ab"+"c" != "a"+"bc"
}

// The histogram-snapshot fields that become sub-series of a histogram
// metric ("x" -> "x.count", "x.p99", ...).
constexpr const char* kHistFields[] = {"count", "sum",
                                       "p50",   "p95",
                                       "p99",   "max"};

}  // namespace

std::optional<std::int64_t> TimeSeriesRecorder::Ring::at(
    std::uint64_t idx, std::size_t cap) const {
  if (idx < first_idx() || idx >= end_idx) return std::nullopt;
  const std::uint64_t off = idx - first_idx();
  const std::size_t pos =
      v.size() < cap ? static_cast<std::size_t>(off)
                     : (next + static_cast<std::size_t>(off)) % cap;
  return v[pos];
}

void TimeSeriesRecorder::Ring::push(std::uint64_t idx, std::int64_t x,
                                    std::size_t cap) {
  if (v.empty()) end_idx = idx;  // a series may be admitted mid-run
  HCM_CHECK_MSG(idx == end_idx, "ring grid indices must be contiguous");
  if (v.size() < cap) {
    v.push_back(x);
  } else {
    v[next] = x;
    next = (next + 1) % cap;
  }
  ++end_idx;
}

TimeSeriesRecorder::TimeSeriesRecorder(TimeSeriesOptions options)
    : options_(std::move(options)) {
  HCM_CHECK_MSG(!options_.tiers.empty(), "at least one retention tier");
  sim::Duration prev = 0;
  for (const TierSpec& t : options_.tiers) {
    HCM_CHECK_MSG(t.period > prev, "tier periods must strictly increase");
    HCM_CHECK_MSG(t.capacity > 0, "tier capacity must be positive");
    prev = t.period;
  }
  next_idx_.assign(options_.tiers.size(), 0);
}

TimeSeriesRecorder::~TimeSeriesRecorder() { detach(); }

void TimeSeriesRecorder::attach(sim::ShardedKernel& kernel) {
  detach();
  kernel_ = &kernel;
  kernel.set_window_hook([this](sim::SimTime floor) { sample_until(floor); });
}

void TimeSeriesRecorder::attach(sim::Scheduler& sched) {
  detach();
  sched_ = &sched;
  arm_timer();
}

void TimeSeriesRecorder::arm_timer() {
  const sim::Duration p = options_.tiers.front().period;
  const sim::SimTime next = (sched_->now() / p + 1) * p;
  timer_ = sched_->at(next, [this] {
    timer_ = 0;
    sample_until(sched_->now());
    arm_timer();
  });
}

void TimeSeriesRecorder::detach() {
  if (kernel_ != nullptr) {
    kernel_->set_window_hook({});
    kernel_ = nullptr;
  }
  if (sched_ != nullptr) {
    if (timer_ != 0) sched_->cancel(timer_);
    timer_ = 0;
    sched_ = nullptr;
  }
}

void TimeSeriesRecorder::snapshot_into(
    std::map<std::string, std::int64_t>& out) {
  const Registry* src = nullptr;
  if (ShardSlabs* slabs = ShardSlabs::installed()) {
    slabs->merge_into(merged_);
    src = &merged_;
  } else {
    src = &Registry::global();
  }
  std::vector<std::string> prefixes = options_.prefixes;
  if (prefixes.empty()) prefixes.push_back("");
  for (const std::string& prefix : prefixes) {
    const Value snap = src->to_value(prefix);
    for (const auto& [name, v] : snap.as_map()) {
      if (v.type() == ValueType::kInt) {
        out[name] = v.as_int();
      } else if (v.type() == ValueType::kMap) {
        const ValueMap& h = v.as_map();
        for (const char* field : kHistFields) {
          auto it = h.find(field);
          if (it != h.end()) out[name + "." + field] = it->second.as_int();
        }
      }
    }
  }
  // Kernel progress series are injected regardless of prefix filters:
  // they are the per-shard throughput rows of the hcm_top dashboard and
  // derive from deterministic event counts (never busy_ns wall time).
  if (kernel_ != nullptr) {
    out["sim.windows"] =
        static_cast<std::int64_t>(kernel_->windows_run());
    for (sim::ShardId s = 0; s < kernel_->shards(); ++s) {
      out["sim.shard." + std::to_string(s) + ".events"] =
          static_cast<std::int64_t>(kernel_->shard(s).events_processed());
    }
  } else if (sched_ != nullptr) {
    out["sim.events"] =
        static_cast<std::int64_t>(sched_->events_processed());
  }
}

void TimeSeriesRecorder::sample_until(sim::SimTime now) {
  // Outside the lock: the refresher may touch the registry (gauge
  // sets), and the snapshot below reads whatever it wrote.
  if (pre_sample_) pre_sample_();
  bool emitted = false;
  sim::SimTime latest = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t n_tiers = options_.tiers.size();
    // Due grid-index range [begin, end) per tier; a grid index k of a
    // tier with period P samples virtual time (k + 1) * P.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> due(n_tiers);
    bool any = false;
    for (std::size_t t = 0; t < n_tiers; ++t) {
      const auto end = static_cast<std::uint64_t>(
          now / options_.tiers[t].period);
      due[t] = {next_idx_[t], std::max<std::uint64_t>(end, next_idx_[t])};
      if (due[t].second > due[t].first) any = true;
    }
    if (!any) return;

    std::map<std::string, std::int64_t> snap;
    snapshot_into(snap);

    for (const auto& [name, value] : snap) {
      auto it = series_.find(name);
      if (it == series_.end()) {
        if (options_.max_series != 0 &&
            series_.size() >= options_.max_series) {
          refused_.insert(name);
          continue;
        }
        it = series_.emplace(name, Series{}).first;
        it->second.rings.resize(n_tiers);
      }
      for (std::size_t t = 0; t < n_tiers; ++t) {
        for (std::uint64_t k = due[t].first; k < due[t].second; ++k) {
          it->second.rings[t].push(k, value, options_.tiers[t].capacity);
        }
      }
    }
    for (std::size_t t = 0; t < n_tiers; ++t) {
      samples_ += due[t].second - due[t].first;
      next_idx_[t] = due[t].second;
      if (due[t].second > due[t].first) {
        last_time_ = std::max(
            last_time_, static_cast<sim::SimTime>(due[t].second) *
                            options_.tiers[t].period);
      }
    }
    emitted = true;
    latest = last_time_;
  }
  // Outside the lock: rule evaluation reads back through the public
  // accessors (and its obs.health.* metrics land in the next sample).
  if (emitted && health_ != nullptr) health_->evaluate(latest, *this);
}

std::size_t TimeSeriesRecorder::series_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return series_.size();
}

std::uint64_t TimeSeriesRecorder::samples_taken() const {
  std::lock_guard<std::mutex> lk(mu_);
  return samples_;
}

std::uint64_t TimeSeriesRecorder::dropped_series() const {
  std::lock_guard<std::mutex> lk(mu_);
  return refused_.size();
}

sim::SimTime TimeSeriesRecorder::last_sample_time() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_time_;
}

std::optional<std::int64_t> TimeSeriesRecorder::latest(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) return std::nullopt;
  for (std::size_t t = 0; t < it->second.rings.size(); ++t) {
    const Ring& r = it->second.rings[t];
    if (!r.v.empty()) return r.at(r.end_idx - 1, options_.tiers[t].capacity);
  }
  return std::nullopt;
}

std::optional<std::int64_t> TimeSeriesRecorder::value_at(
    const std::string& name, sim::SimTime at) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) return std::nullopt;
  for (std::size_t t = 0; t < it->second.rings.size(); ++t) {
    const Ring& r = it->second.rings[t];
    if (r.v.empty()) continue;
    const sim::Duration p = options_.tiers[t].period;
    if (at < p) continue;  // before this tier's first grid point
    // Newest grid index with sample time (k + 1) * p <= at, clamped to
    // the newest actually recorded (sampling may lag the grid).
    std::uint64_t k = static_cast<std::uint64_t>(at / p) - 1;
    k = std::min(k, r.end_idx - 1);
    if (auto v = r.at(k, options_.tiers[t].capacity)) return v;
    // Aged out of this tier's ring; a coarser tier may still cover it.
  }
  return std::nullopt;
}

void TimeSeriesRecorder::each_series(
    const std::function<void(const std::string&)>& fn) const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lk(mu_);
    names.reserve(series_.size());
    for (const auto& [name, s] : series_) names.push_back(name);
  }
  for (const std::string& name : names) fn(name);
}

std::uint64_t TimeSeriesRecorder::hash_locked() const {
  std::uint64_t h = kSeriesSeed;
  for (const auto& [name, s] : series_) {
    fold_str(h, name);
    for (std::size_t t = 0; t < s.rings.size(); ++t) {
      const Ring& r = s.rings[t];
      if (r.v.empty()) continue;
      fold_u64(h, t);
      fold_u64(h, r.end_idx);
      fold_u64(h, r.v.size());
      for (std::uint64_t k = r.first_idx(); k < r.end_idx; ++k) {
        fold_u64(h, static_cast<std::uint64_t>(
                        *r.at(k, options_.tiers[t].capacity)));
      }
    }
  }
  fold_u64(h, static_cast<std::uint64_t>(last_time_));
  return h;
}

std::uint64_t TimeSeriesRecorder::series_hash() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hash_locked();
}

Value TimeSeriesRecorder::to_value(const std::string& prefix,
                                   sim::Duration window) const {
  std::lock_guard<std::mutex> lk(mu_);
  // Finest tier whose full retention covers the window (the coarsest
  // tier serves any window beyond every ring's reach).
  std::size_t tier = options_.tiers.size() - 1;
  for (std::size_t t = 0; t < options_.tiers.size(); ++t) {
    const TierSpec& ts = options_.tiers[t];
    if (static_cast<sim::Duration>(ts.capacity) * ts.period >= window) {
      tier = t;
      break;
    }
  }
  const sim::Duration p = options_.tiers[tier].period;
  const sim::SimTime from = window >= last_time_ ? 0 : last_time_ - window;
  ValueMap series;
  for (const auto& [name, s] : series_) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const Ring& r = s.rings[tier];
    if (r.v.empty()) continue;
    // First grid index with sample time (k + 1) * p > from.
    std::uint64_t k0 = static_cast<std::uint64_t>(from / p);
    k0 = std::max(k0, r.first_idx());
    if (k0 >= r.end_idx) continue;
    ValueList values;
    values.reserve(static_cast<std::size_t>(r.end_idx - k0));
    for (std::uint64_t k = k0; k < r.end_idx; ++k) {
      values.emplace_back(*r.at(k, options_.tiers[tier].capacity));
    }
    ValueMap entry;
    entry.emplace("t0_us", static_cast<std::int64_t>(k0 + 1) * p);
    entry.emplace("values", std::move(values));
    series[name] = Value(std::move(entry));
  }
  ValueMap out;
  out.emplace("now_us", last_time_);
  out.emplace("period_us", p);
  out.emplace("series", std::move(series));
  return Value(std::move(out));
}

Value TimeSeriesRecorder::dump() const {
  ValueMap out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ValueList tiers;
    for (const TierSpec& t : options_.tiers) {
      tiers.emplace_back(ValueMap{
          {"period_us", Value(t.period)},
          {"capacity", Value(static_cast<std::int64_t>(t.capacity))},
      });
    }
    ValueMap series;
    for (const auto& [name, s] : series_) {
      ValueList per_tier;
      for (std::size_t t = 0; t < s.rings.size(); ++t) {
        const Ring& r = s.rings[t];
        if (r.v.empty()) continue;
        const sim::Duration p = options_.tiers[t].period;
        ValueList values;
        values.reserve(r.v.size());
        for (std::uint64_t k = r.first_idx(); k < r.end_idx; ++k) {
          values.emplace_back(*r.at(k, options_.tiers[t].capacity));
        }
        ValueMap entry;
        entry.emplace("period_us", p);
        entry.emplace("t0_us",
                      static_cast<std::int64_t>(r.first_idx() + 1) * p);
        entry.emplace("values", std::move(values));
        per_tier.emplace_back(std::move(entry));
      }
      if (!per_tier.empty()) series[name] = Value(std::move(per_tier));
    }
    char hash[32];
    std::snprintf(hash, sizeof hash, "0x%016llx",
                  static_cast<unsigned long long>(hash_locked()));
    out["format"] = Value(std::string("hcm-series-v1"));
    out["now_us"] = Value(last_time_);
    out["samples"] = Value(static_cast<std::int64_t>(samples_));
    out["series_count"] = Value(static_cast<std::int64_t>(series_.size()));
    out["dropped_series"] = Value(static_cast<std::int64_t>(refused_.size()));
    out["hash"] = Value(std::string(hash));
    out["tiers"] = Value(std::move(tiers));
    out["series"] = Value(std::move(series));
  }
  if (health_ != nullptr) out["health"] = health_->to_value();
  return Value(std::move(out));
}

bool TimeSeriesRecorder::write_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << json_write(dump()) << "\n";
  return f.good();
}

}  // namespace hcm::obs
