// The repository benchmark: one runner, four seeded workloads
// (calls_soap, calls_binary, dynamism, city), end-to-end metrics from
// an untraced run and per-layer metrics from a traced one. README.md
// in this directory maps every metric to its layer and workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/value.hpp"
#include "obs/metrics.hpp"

namespace hcm::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
// CPU seconds used by every thread of this process so far. Set-up is
// timed with it: unlike wall time it barely moves when the host takes
// the core away from the process.
[[nodiscard]] inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}
[[nodiscard]] inline std::uint64_t ns_between(Clock::time_point a,
                                              Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// --- statistics -----------------------------------------------------------

// Percentile of `v` by linear interpolation between closest ranks (the
// same rule as numpy's default); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);

// Latency samples, kept as (value, weight) so a workload can fold in a
// population of identical samples without materialising each one.
class LatencySamples {
 public:
  void add(double ms, double weight = 1) { v_.push_back({ms, weight}); }
  [[nodiscard]] double count() const;
  [[nodiscard]] double percentile(double p) const;

 private:
  struct Entry {
    double ms;
    double weight;
  };
  std::vector<Entry> v_;
};

// --- host meters ------------------------------------------------------------

// VmHWM / VmRSS of this process in MB (0 when /proc is unavailable).
[[nodiscard]] double peak_rss_mb();

// Operator-new calls and bytes, accumulated only while started (the
// runner pauses it while a workload generates its own inputs).
class AllocMeter {
 public:
  void start();
  void stop();
  [[nodiscard]] std::uint64_t allocs() const { return allocs_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t allocs0_ = 0, bytes0_ = 0;
  std::uint64_t allocs_ = 0, bytes_ = 0;
  bool running_ = false;
};
[[nodiscard]] std::uint64_t alloc_count_now();

// --- benchmark spans --------------------------------------------------------

// In-memory span recorder for the traced run. Spans wrap the
// benchmark's own calls into the framework's public functions; each
// records name, start, end, parent and op id. Nesting is tracked with
// a stack (the benchmark drives the simulation from one thread), so a
// span's self time — its duration minus the part covered by its child
// spans — is accumulated as spans close. Raw spans are kept up to a cap
// and written out when the run ends; the per-name totals cover every
// span.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t max_kept = 50'000) : max_kept_(max_kept) {}

  std::uint64_t begin(const char* name, std::uint64_t op_id = 0);
  void end(std::uint64_t id);

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  [[nodiscard]] const std::map<std::string, Totals>& totals() const {
    return totals_;
  }
  // Mean duration of the spans called `name` (0 when none).
  [[nodiscard]] double mean_ns(const std::string& name) const;

  // Writes {"spans": [...], "totals": {...}} with hcm::json_write.
  [[nodiscard]] bool write(const std::string& path, const Value& extra) const;

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op_id = 0;
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  struct Open {
    Span span;
    std::uint64_t child_ns = 0;
  };

  Clock::time_point epoch_ = Clock::now();
  std::size_t max_kept_;
  std::uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::uint64_t dropped_ = 0;
  std::map<std::string, Totals> totals_;
};

// RAII span; a null recorder makes it free (the untraced run).
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name, std::uint64_t op_id = 0)
      : rec_(rec), id_(rec == nullptr ? 0 : rec->begin(name, op_id)) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint64_t id_;
};

// --- workloads --------------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t script_epochs = 0;  // 0: the workload's default
  bool fill = true;          // keep running epochs until `seconds` elapse
  std::string work_dir;      // durable VSR dirs and span dumps go here
};

// Per-op bookkeeping shared by every workload.
struct OpLedger {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  // completed successfully
  std::uint64_t failed = 0;     // failed, refused, dropped or missing
  std::vector<std::string> errors;  // first few failure descriptions

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  void absorb(const OpLedger& other) {
    attempted += other.attempted;
    completed += other.completed;
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < 20) errors.push_back(e);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the topology, runs the first refresh_all and opens
  // subscriptions (or builds the City). Timed as setup_s.
  virtual void setup() = 0;
  // Input parameters, recorded as provenance.
  [[nodiscard]] virtual Value params() const = 0;
  [[nodiscard]] virtual std::size_t default_script_epochs() const = 0;
  [[nodiscard]] virtual std::size_t warmup_epochs() const { return 1; }
  // Epochs per ops_per_s sample: enough to span the traffic's period.
  [[nodiscard]] virtual std::size_t epochs_per_sample() const { return 5; }

  // Generates the next epoch's seeded inputs (not timed, not counted
  // as allocations), then runs it. With `spans` set the run is traced.
  virtual void prepare_epoch() = 0;
  virtual void run_epoch(SpanRecorder* spans) = 0;
  // Lets every issued op finish (bounded).
  virtual void drain(SpanRecorder* spans) = 0;

  // Measurement window of the deterministic script: baselines at
  // begin, per-layer counts and virtual-time metrics at end.
  virtual void begin_script() = 0;
  virtual void end_script(Metrics& e2e, Metrics& layers) = 0;
  // Host-cost replays of the layer functions on this workload's own
  // inputs (traced run only).
  virtual void replay(SpanRecorder& spans, Metrics& layers) = 0;
  // Fills layer metrics read from the benchmark's spans.
  virtual void span_metrics(const SpanRecorder& spans, Metrics& layers) = 0;
  // Output checks that need the end state (store fsck, ...).
  virtual void final_checks() = 0;

  // Turns the framework's obs::Tracer on for the traced phase.
  virtual void set_program_tracing(bool on) = 0;

  // Deterministic digest of the script's results (self-test).
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;

  [[nodiscard]] OpLedger& ledger() { return ledger_; }
  [[nodiscard]] const OpLedger& ledger() const { return ledger_; }

 protected:
  OpLedger ledger_;
};

// --- per-layer helpers (layers.cpp) -----------------------------------------

// Sum of every counter/gauge in the global registry whose name starts
// with `prefix` and ends with `suffix`.
[[nodiscard]] std::uint64_t sum_counters(const std::string& prefix,
                                         const std::string& suffix);
// Bucket-wise merge of every matching histogram.
[[nodiscard]] std::unique_ptr<obs::Histogram> merged_histogram(
    const std::string& prefix, const std::string& suffix);

}  // namespace hcm::perfbench
