// hcm_perfbench: runs one seeded workload and prints every metric by
// name with its unit; the last stdout line is the full result as JSON
// (hcm::json_write). run.py builds this binary and turns that line
// into the benchmark's result record.
//
//   hcm_perfbench --workload calls_soap --seed 1 --seconds 10 --trace 0
//   hcm_perfbench --selftest     # determinism self-test (ctest)
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "home.hpp"
#include "obs/trace.hpp"

#ifndef HCM_PERFBENCH_BUILD_TYPE
#define HCM_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HCM_PERFBENCH_COMPILER
#define HCM_PERFBENCH_COMPILER "unknown"
#endif
#ifndef HCM_PERFBENCH_COMMIT
#define HCM_PERFBENCH_COMMIT "unknown"
#endif

namespace hcm::perfbench {
namespace {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"calls_soap", "calls_binary",
                                                  "dynamism", "city"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const RunConfig& cfg) {
  if (cfg.workload == "calls_soap") {
    return make_calls(cfg, core::VsgProtocol::kSoap);
  }
  if (cfg.workload == "calls_binary") {
    return make_calls(cfg, core::VsgProtocol::kBinary);
  }
  if (cfg.workload == "dynamism") return make_dynamism(cfg);
  if (cfg.workload == "city") return make_city(cfg);
  return nullptr;
}

Value metrics_value(const Metrics& m) {
  ValueMap out;
  for (const auto& [name, metric] : m) {
    out[name] = Value(ValueMap{{"value", Value(metric.value)},
                               {"unit", Value(metric.unit)}});
  }
  return Value(std::move(out));
}

void print_metrics(const char* title, const Metrics& m) {
  std::printf("  %s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("    %-40s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

// Virtual time per hop from the program's own tracer: per component,
// span count and summed virtual duration.
Value program_trace_summary() {
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_component;
  for (const obs::Span& s : obs::Tracer::global().spans()) {
    auto& [n, us] = by_component[s.component];
    ++n;
    us += s.end - s.start;
  }
  ValueMap out;
  for (const auto& [component, v] : by_component) {
    out[component] = Value(ValueMap{{"spans", Value(v.first)},
                                    {"virtual_us", Value(v.second)}});
  }
  return Value(std::move(out));
}

// Completed ops per wall second, one sample per group of epochs (a
// group spans the workload's traffic period, so bursty epochs average
// out); ops_per_s is the median sample.
class RateSampler {
 public:
  explicit RateSampler(std::size_t epochs_per_sample)
      : per_sample_(std::max<std::size_t>(1, epochs_per_sample)) {}
  void add(std::uint64_t ops, double wall_s) {
    ops_ += static_cast<double>(ops);
    wall_ += wall_s;
    if (++n_ < per_sample_) return;
    if (wall_ > 0) samples_.push_back(ops_ / wall_);
    n_ = 0;
    ops_ = wall_ = 0;
  }
  [[nodiscard]] double median_rate() const { return median(samples_); }
  [[nodiscard]] bool at_sample_boundary() const { return n_ == 0; }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }

 private:
  std::size_t per_sample_;
  std::size_t n_ = 0;
  double ops_ = 0, wall_ = 0;
  std::vector<double> samples_;
};

void timed_epoch(Workload& w, AllocMeter* meter, RateSampler& rates,
                 SpanRecorder* spans) {
  w.prepare_epoch();
  const std::uint64_t n0 = w.ledger().completed;
  if (meter != nullptr) meter->start();
  const Clock::time_point t0 = Clock::now();
  w.run_epoch(spans);
  const double dt = seconds_since(t0);
  if (meter != nullptr) meter->stop();
  rates.add(w.ledger().completed - n0, dt);
}

// Set-ups in an untraced run; setup_s is their median.
constexpr int kSetups = 16;

// Builds one workload instance, times its set-up in process CPU
// seconds, then warms it up (untimed).
std::unique_ptr<Workload> set_up(const RunConfig& cfg,
                                 std::vector<double>& setup_s) {
  const double t0 = process_cpu_seconds();
  std::unique_ptr<Workload> w = make_workload(cfg);
  w->setup();
  setup_s.push_back(process_cpu_seconds() - t0);
  for (std::size_t i = 0; i < w->warmup_epochs(); ++i) {
    w->prepare_epoch();
    w->run_epoch(nullptr);
  }
  w->drain(nullptr);
  return w;
}

// Lets the instance's ops finish, runs its end-of-run checks and folds
// its ledger into the run's.
void retire(Workload& w, OpLedger& total) {
  w.drain(nullptr);
  w.final_checks();
  total.absorb(w.ledger());
}

int run(const RunConfig& cfg) {
  std::printf("hcm_perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n",
              cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.trace ? 1 : 0);

  std::vector<double> setup_s;
  OpLedger ledger;  // every instance's ops and checks
  std::unique_ptr<Workload> w = set_up(cfg, setup_s);

  // The deterministic script: fixed epochs, then every op finishes.
  const double untraced_budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Clock::time_point run_start = Clock::now();
  const std::size_t script_epochs =
      cfg.script_epochs > 0 ? cfg.script_epochs : w->default_script_epochs();
  AllocMeter heap;
  RateSampler rates(w->epochs_per_sample());
  w->begin_script();
  const std::uint64_t ops0 = w->ledger().completed;
  for (std::size_t e = 0; e < script_epochs; ++e) {
    timed_epoch(*w, &heap, rates, nullptr);
  }
  heap.start();
  w->drain(nullptr);
  heap.stop();
  const double script_ops =
      static_cast<double>(w->ledger().completed - ops0);
  Metrics e2e;
  Metrics layers;
  w->end_script(e2e, layers);
  // High-water mark after the fixed script, so the extra epochs a
  // faster build fits into the wall budget cannot raise it.
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  const std::uint64_t fingerprint = w->fingerprint();
  const Value params = w->params();

  // More epochs of the same traffic until the wall budget is spent. The
  // untraced run also tears the workload down and sets it up again at
  // even steps of the budget: host speed drifts over seconds, so set-up
  // samples spread over the whole run give a steadier median than a
  // burst of back-to-back ones.
  const int resetups = cfg.trace ? 0 : kSetups - 1;
  int resetups_done = 0;
  const Clock::time_point fill_start = Clock::now();
  const double fill_budget = untraced_budget - seconds_since(run_start);
  while (cfg.fill &&
         (seconds_since(run_start) < untraced_budget || rates.samples() < 3)) {
    if (resetups_done < resetups && rates.at_sample_boundary() &&
        seconds_since(fill_start) >=
            fill_budget * (resetups_done + 1) / (resetups + 1)) {
      retire(*w, ledger);
      w.reset();
      w = set_up(cfg, setup_s);
      ++resetups_done;
    }
    timed_epoch(*w, nullptr, rates, nullptr);
  }
  w->drain(nullptr);
  const double ops_per_s = rates.median_rate();
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["ops_per_s"] = {ops_per_s, "1/s"};
  layers["ops_per_s"] = e2e["ops_per_s"];
  e2e["allocs_per_op"] = {
      script_ops > 0 ? static_cast<double>(heap.allocs()) / script_ops : 0,
      "count"};
  e2e["heap_bytes_per_op"] = {
      script_ops > 0 ? static_cast<double>(heap.bytes()) / script_ops : 0,
      "B"};

  std::string span_path;
  if (cfg.trace) {
    SpanRecorder spans;
    RateSampler traced_rates(w->epochs_per_sample());
    RateSampler program_traced(1);
    const Clock::time_point t0 = Clock::now();
    // The program's tracer rides along for the first traced epoch only:
    // Tracer::context_of scans its whole span table, even for the
    // untraced id 0, so every later call would pay for the table's size.
    obs::Tracer::global().clear();
    w->set_program_tracing(true);
    timed_epoch(*w, nullptr, program_traced, &spans);
    w->drain(&spans);
    w->set_program_tracing(false);
    const Value program_spans = program_trace_summary();
    obs::Tracer::global().clear();
    while (seconds_since(t0) < cfg.seconds - untraced_budget ||
           traced_rates.samples() < 1) {
      timed_epoch(*w, nullptr, traced_rates, &spans);
    }
    w->drain(&spans);
    w->span_metrics(spans, layers);
    w->replay(spans, layers);
    const double traced = traced_rates.median_rate();
    layers["obs.trace_overhead_pct"] = {
        ops_per_s > 0 ? (ops_per_s - traced) / ops_per_s * 100 : 0, "%"};
    layers["obs.trace.spans_dropped"] = {
        static_cast<double>(sum_counters("obs.trace.spans_dropped", "")),
        "count"};
    span_path = cfg.work_dir + "/spans-" + cfg.workload + "-" +
                std::to_string(cfg.seed) + ".json";
    if (!spans.write(span_path, program_spans)) {
      w->ledger().fail("cannot write " + span_path);
    }
    std::printf("  traced run: self time per span (ns, mean)\n");
    for (const auto& [name, t] : spans.totals()) {
      std::printf("    %-32s n=%-9" PRIu64 " total=%12.0f self=%12.0f\n",
                  name.c_str(), t.count,
                  static_cast<double>(t.total_ns) / t.count,
                  static_cast<double>(t.self_ns) / t.count);
    }
  }
  retire(*w, ledger);
  w.reset();

  e2e["error_rate"] = {
      ledger.attempted > 0
          ? static_cast<double>(ledger.failed) / ledger.attempted
          : 1.0,
      "ratio"};
  layers["load.error_rate"] = e2e["error_rate"];
  const bool correct = ledger.failed == 0 && ledger.attempted > 0;

  print_metrics("end-to-end (untraced run)", e2e);
  if (cfg.trace) print_metrics("per-layer (script counts + traced run)", layers);
  for (const std::string& err : ledger.errors) {
    std::printf("  FAILED CHECK: %s\n", err.c_str());
  }

  ValueList errors;
  for (const std::string& err : ledger.errors) errors.push_back(Value(err));
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, fingerprint);
  const Value result(ValueMap{
      {"workload", Value(cfg.workload)},
      {"correct", Value(correct)},
      {"attempted", Value(static_cast<std::int64_t>(ledger.attempted))},
      {"failed", Value(static_cast<std::int64_t>(ledger.failed))},
      {"errors", Value(std::move(errors))},
      {"e2e", metrics_value(e2e)},
      {"layers", metrics_value(layers)},
      {"fingerprint", Value(std::string(fp))},
      {"spans_file", Value(span_path)},
      {"provenance",
       Value(ValueMap{
           {"build_type", Value(HCM_PERFBENCH_BUILD_TYPE)},
           {"compiler", Value(HCM_PERFBENCH_COMPILER)},
           {"commit", Value(HCM_PERFBENCH_COMMIT)},
           {"nproc", Value(static_cast<std::int64_t>(
                         std::thread::hardware_concurrency()))},
           {"seed", Value(static_cast<std::int64_t>(cfg.seed))},
           {"seconds", Value(cfg.seconds)},
           {"trace", Value(cfg.trace)},
           {"setups", Value(static_cast<std::int64_t>(setup_s.size()))},
           {"script_epochs", Value(static_cast<std::int64_t>(script_epochs))},
           {"workload_params", params},
       })},
  });
  std::printf("%s\n", json_write(result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- determinism self-test ----------------------------------------------------

struct ChildResult {
  bool ran = false;
  bool correct = false;
  std::string fingerprint;
};

ChildResult run_child(const std::string& exe, const std::string& workload,
                      std::uint64_t seed, std::size_t epochs,
                      const std::string& work_dir) {
  const std::string cmd = "'" + exe + "' --workload " + workload +
                          " --seed " + std::to_string(seed) +
                          " --seconds 0 --trace 0 --no-fill" +
                          " --script-epochs " + std::to_string(epochs) +
                          " --work-dir '" + work_dir + "'";
  ChildResult out;
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return out;
  std::string last;
  char buf[4096];
  std::string line;
  while (std::fgets(buf, sizeof buf, p) != nullptr) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      last = line;
      line.clear();
    }
  }
  pclose(p);
  auto parsed = json_parse(last);
  if (!parsed.is_ok() || !parsed.value().is_map()) return out;
  const Value& v = parsed.value();
  out.ran = true;
  out.correct = v.at("correct").is_bool() && v.at("correct").as_bool();
  out.fingerprint = v.at("fingerprint").as_string();
  return out;
}

int selftest(const std::string& work_dir) {
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe");
  struct Case {
    const char* workload;
    std::size_t epochs;
    bool seed_changes_inputs;
  };
  // City traffic is index-derived, so its second seed must pass the
  // checks but may replay identically.
  const Case cases[] = {{"calls_soap", 2, true},
                        {"calls_binary", 2, true},
                        {"dynamism", 6, true},
                        {"city", 20, false}};
  int failures = 0;
  for (const Case& c : cases) {
    const ChildResult a = run_child(exe, c.workload, 11, c.epochs, work_dir);
    const ChildResult b = run_child(exe, c.workload, 11, c.epochs, work_dir);
    const ChildResult other = run_child(exe, c.workload, 12, c.epochs, work_dir);
    const bool repeat = a.ran && b.ran && a.fingerprint == b.fingerprint;
    const bool checks = a.correct && b.correct && other.correct;
    const bool differs = !c.seed_changes_inputs ||
                         (other.ran && other.fingerprint != a.fingerprint);
    std::printf("selftest %-13s same-seed %s (%s) | checks %s | seed 12 %s\n",
                c.workload, repeat ? "identical" : "DIFFERENT",
                a.fingerprint.c_str(), checks ? "pass" : "FAIL",
                differs ? "differs" : "IDENTICAL");
    if (!repeat || !checks || !differs) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: hcm_perfbench --workload <calls_soap|calls_binary|"
               "dynamism|city> [--seed N] [--seconds S] [--trace 0|1]\n"
               "                     [--script-epochs N] "
               "[--no-fill] [--work-dir DIR]\n"
               "       hcm_perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace hcm::perfbench

int main(int argc, char** argv) {
  using namespace hcm::perfbench;
  RunConfig cfg;
  cfg.work_dir = ".";
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      self = true;
    } else if (a == "--no-fill") {
      cfg.fill = false;
    } else if (a == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      cfg.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--script-epochs" && has_value) {
      cfg.script_epochs = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--work-dir" && has_value) {
      cfg.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (self) return selftest(cfg.work_dir);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    return usage();
  }
  return run(cfg);
}
