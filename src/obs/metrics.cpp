#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace hcm::obs {

namespace {
// Atomic so shard workers can consult the kill switch without a data
// race; relaxed order is enough for a monotone on/off flag.
std::atomic<bool> g_enabled{true};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void Histogram::observe(std::int64_t v) {
  if (!enabled()) return;
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::size_t i = 0;
  while (i < kBounds.size() && v > kBounds[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

std::int64_t Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t b = buckets_[i].load(std::memory_order_relaxed);
    seen += b;
    if (static_cast<double>(seen) >= rank && b > 0) {
      // Bucket upper bound, clamped to the observed extremes so small
      // samples don't report a bound no value ever reached.
      std::int64_t bound = i < kBounds.size() ? kBounds[i] : max();
      return std::clamp(bound, min(), max());
    }
  }
  return max();
}

Value Histogram::snapshot() const {
  return Value(ValueMap{
      {"count", Value(static_cast<std::int64_t>(count()))},
      {"sum", Value(sum())},
      {"min", Value(min())},
      {"max", Value(max())},
      {"p50", Value(percentile(50))},
      {"p95", Value(percentile(95))},
      {"p99", Value(percentile(99))},
  });
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(kMinInit, std::memory_order_relaxed);
  max_.store(kMaxInit, std::memory_order_relaxed);
}

void Histogram::merge_from(const Histogram& src) {
  const std::uint64_t n = src.count();
  if (n == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t b = src.buckets_[i].load(std::memory_order_relaxed);
    if (b != 0) buckets_[i].fetch_add(b, std::memory_order_relaxed);
  }
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(src.sum(), std::memory_order_relaxed);
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  const std::int64_t smin = src.min();
  while (smin < cur &&
         !min_.compare_exchange_weak(cur, smin, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  const std::int64_t smax = src.max();
  while (smax > cur &&
         !max_.compare_exchange_weak(cur, smax, std::memory_order_relaxed)) {
  }
}

Registry& Registry::global() {
  // Process-wide metrics root; shard workers get private scopes via
  // unique_scope() rather than per-shard copies. Magic-static init is
  // thread-safe and the instance guards itself internally.
  // hcm:allow(shard-static-local): process-wide metrics root
  static Registry g;
  return g;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

const Counter* Registry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string Registry::unique_scope(const std::string& base) {
  if (scope_delegate_ != nullptr) return scope_delegate_->unique_scope(base);
  std::lock_guard<std::mutex> lk(mu_);
  auto n = ++scopes_[base];
  if (n == 1) return base;
  return base + "#" + std::to_string(n);
}

void Registry::merge_from(const Registry& src) {
  // Lock order: src first, self second. Merge targets are private
  // fold registries (never merged *from*), so the order can't invert.
  std::lock_guard<std::mutex> src_lk(src.mu_);
  // Zero-valued metrics are still *created* in the target so the merged
  // view's registration set (and thus to_value/to_text output) matches
  // the union of the sources byte for byte.
  for (const auto& [name, c] : src.counters_) {
    Counter& dst = counter(name);
    const std::uint64_t v = c->value();
    if (v != 0) dst.merge_add(v);
  }
  for (const auto& [name, g] : src.gauges_) {
    Gauge& dst = gauge(name);
    const std::int64_t v = g->value();
    if (v != 0) dst.merge_add(v);
  }
  for (const auto& [name, h] : src.histograms_) {
    Histogram& dst = histogram(name);
    if (h->count() != 0) dst.merge_from(*h);
  }
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

namespace {
bool has_prefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}
}  // namespace

Value Registry::to_value(const std::string& prefix) const {
  std::lock_guard<std::mutex> lk(mu_);
  ValueMap out;
  for (const auto& [name, c] : counters_) {
    if (!has_prefix(name, prefix)) continue;
    out[name] = Value(static_cast<std::int64_t>(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    if (!has_prefix(name, prefix)) continue;
    out[name] = Value(g->value());
  }
  for (const auto& [name, h] : histograms_) {
    if (!has_prefix(name, prefix)) continue;
    out[name] = h->snapshot();
  }
  return Value(std::move(out));
}

std::string Registry::to_text(const std::string& prefix) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    if (!has_prefix(name, prefix)) continue;
    os << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    if (!has_prefix(name, prefix)) continue;
    os << name << " " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    if (!has_prefix(name, prefix)) continue;
    os << name << " count=" << h->count() << " sum=" << h->sum()
       << " min=" << h->min() << " max=" << h->max()
       << " p50=" << h->percentile(50) << " p95=" << h->percentile(95)
       << " p99=" << h->percentile(99) << "\n";
  }
  return os.str();
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace hcm::obs
