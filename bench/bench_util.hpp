// Shared helpers for the figure-reproduction benches: simple statistics
// over virtual-time samples, table printing, and a machine-readable
// JSON report (--json <path>) so CI can archive bench results.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "sim/scheduler.hpp"

namespace hcm::bench {

struct Stats {
  double min = 0, mean = 0, p50 = 0, p95 = 0, max = 0;
  std::size_t n = 0;
};

inline Stats stats_of(std::vector<double> samples) {
  Stats s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = samples[samples.size() / 2];
  s.p95 = samples[samples.size() * 95 / 100];
  return s;
}

// Virtual-time durations in milliseconds.
inline double to_ms(sim::Duration d) { return static_cast<double>(d) / 1e3; }

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void print_row_ms(const std::string& label, const Stats& s) {
  std::printf("  %-34s n=%-4zu min=%9.2f ms  mean=%9.2f ms  p95=%9.2f ms\n",
              label.c_str(), s.n, s.min, s.mean, s.p95);
}

// Flat-row JSON report: {"bench": <name>, "rows": [{k: v, ...}, ...]},
// rendered by the common JSON codec (compact, keys sorted).
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  class Row {
   public:
    Row& num(const std::string& key, double v) {
      fields_[key] = v;
      return *this;
    }
    Row& num(const std::string& key, std::uint64_t v) {
      fields_[key] = static_cast<std::int64_t>(v);
      return *this;
    }
    Row& str(const std::string& key, const std::string& v) {
      fields_[key] = v;
      return *this;
    }

   private:
    friend class JsonReport;
    ValueMap fields_;
  };

  Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  // Adds a "provenance" object naming the configure preset, the host's
  // hardware threads and the commit the bench was built from (the
  // bench targets' HCM_BENCH_PRESET and HCM_BENCH_COMMIT, "unknown"
  // when built elsewhere), so a committed row can be compared with a
  // fresh one on like terms.
  void stamp_provenance() {
#if defined(HCM_BENCH_PRESET) && defined(HCM_BENCH_COMMIT)
    const std::string preset = HCM_BENCH_PRESET;
    const std::string commit = HCM_BENCH_COMMIT;
#else
    const std::string preset = "unknown";
    const std::string commit = "unknown";
#endif
    provenance_.emplace("preset", preset);
    provenance_.emplace(
        "nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    provenance_.emplace("commit", commit);
  }

  // Writes the report; returns false (after a warning) on I/O failure
  // so benches keep printing their tables even with a bad --json path.
  // With append=true the report object is added as a new line instead
  // of clobbering the file, so several benches (or repeated runs) can
  // share one artifact as JSON-lines.
  bool write(const std::string& path, bool append = false) const {
    std::FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    ValueList rows;
    for (const Row& r : rows_) rows.emplace_back(r.fields_);
    ValueMap doc;
    doc.emplace("bench", bench_);
    doc.emplace("rows", std::move(rows));
    if (!provenance_.empty()) doc.emplace("provenance", provenance_);
    const std::string json = json_write(Value(std::move(doc)));
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_;
  ValueMap provenance_;
  std::vector<Row> rows_;
};

// The path following a "--json" argument, or "" when absent.
inline std::string json_path_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

// --- allocation counting ------------------------------------------------
// Heap-traffic meter for the allocations/call columns: inline counters
// shared by every TU, bumped by replacement operator new/delete that a
// bench opts into with `#define HCM_BENCH_ALLOC_HOOK` before including
// this header. Replacement allocation functions must not be inline and
// must exist exactly once per binary, so the hook must be enabled in
// exactly one TU. Without the hook the counters simply stay at zero
// (alloc_hook_installed() tells the two cases apart).
inline std::atomic<std::uint64_t> g_alloc_count{0};
inline std::atomic<std::uint64_t> g_alloc_bytes{0};
inline std::atomic<bool> g_alloc_hook_installed{false};

inline std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
inline std::uint64_t alloc_bytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}
inline bool alloc_hook_installed() {
  return g_alloc_hook_installed.load(std::memory_order_relaxed);
}

// Scoped delta: allocations and bytes requested since construction.
class AllocDelta {
 public:
  AllocDelta() : count0_(alloc_count()), bytes0_(alloc_bytes()) {}
  [[nodiscard]] std::uint64_t allocs() const {
    return alloc_count() - count0_;
  }
  [[nodiscard]] std::uint64_t bytes() const { return alloc_bytes() - bytes0_; }

 private:
  std::uint64_t count0_;
  std::uint64_t bytes0_;
};

}  // namespace hcm::bench

#ifdef HCM_BENCH_ALLOC_HOOK
// Counting replacements for the throwing global allocation functions.
// Alignment-aware overloads are intentionally not replaced; nothing on
// the measured paths over-aligns, and unreplaced overloads fall back to
// the default implementation.
namespace hcm::bench::detail {
inline void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  g_alloc_hook_installed.store(true, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace hcm::bench::detail

void* operator new(std::size_t n) { return hcm::bench::detail::counted_alloc(n); }
void* operator new[](std::size_t n) {
  return hcm::bench::detail::counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // HCM_BENCH_ALLOC_HOOK
