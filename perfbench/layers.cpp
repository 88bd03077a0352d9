// Statistics, host meters and registry aggregation shared by the
// workloads. This is the one translation unit that installs the
// counting operator new of bench/bench_util.hpp.
#define HCM_BENCH_ALLOC_HOOK 1
#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.hpp"

namespace hcm::perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double LatencySamples::count() const {
  double n = 0;
  for (const Entry& e : v_) n += e.weight;
  return n;
}

double LatencySamples::percentile(double p) const {
  if (v_.empty()) return 0;
  std::vector<Entry> sorted = v_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return a.ms < b.ms; });
  const double target = p / 100.0 * count();
  double seen = 0;
  for (const Entry& e : sorted) {
    seen += e.weight;
    if (seen >= target) return e.ms;
  }
  return sorted.back().ms;
}

namespace {
double proc_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::atof(line + key_len + 1);
      break;
    }
  }
  std::fclose(f);
  return kb;
}
}  // namespace

double peak_rss_mb() { return proc_status_kb("VmHWM") / 1024.0; }

std::uint64_t alloc_count_now() { return bench::alloc_count(); }

void AllocMeter::start() {
  if (running_) return;
  running_ = true;
  allocs0_ = bench::alloc_count();
  bytes0_ = bench::alloc_bytes();
}

void AllocMeter::stop() {
  if (!running_) return;
  running_ = false;
  allocs_ += bench::alloc_count() - allocs0_;
  bytes_ += bench::alloc_bytes() - bytes0_;
}

namespace {
bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

std::uint64_t sum_counters(const std::string& prefix,
                           const std::string& suffix) {
  const Value snap = obs::Registry::global().to_value(prefix);
  std::uint64_t total = 0;
  for (const auto& [name, v] : snap.as_map()) {
    if (v.is_int() && ends_with(name, suffix)) {
      total += static_cast<std::uint64_t>(v.as_int());
    }
  }
  return total;
}

std::unique_ptr<obs::Histogram> merged_histogram(const std::string& prefix,
                                                 const std::string& suffix) {
  auto out = std::make_unique<obs::Histogram>();
  const obs::Registry& reg = obs::Registry::global();
  const Value snap = reg.to_value(prefix);
  for (const auto& [name, v] : snap.as_map()) {
    if (!v.is_map() || !ends_with(name, suffix)) continue;
    if (const obs::Histogram* h = reg.find_histogram(name)) out->merge_from(*h);
  }
  return out;
}

}  // namespace hcm::perfbench
