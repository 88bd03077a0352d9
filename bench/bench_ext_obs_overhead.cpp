// Observability overhead bench: wall-clock cost of the obs layer on the
// framework's hot path. Each arm drives the same cross-island call
// (HAVi adapter -> VSG -> SOAP -> Jini island) through a fresh
// SmartHome and measures real nanoseconds per completed invocation:
//
//   disabled     obs::set_enabled(false), tracing off — every counter
//                increment and histogram observe is a no-op branch
//                (registry name lookups on the dispatch path remain).
//   metrics      metrics on, tracing off — the process default.
//   full         metrics + tracing on, spans recorded per hop.
//
// Acceptance: metrics-vs-disabled overhead stays within 5%. Micro
// benchmarks for the individual primitives run under google-benchmark.
//
// --trace <path> additionally records one traced 3-island chain and
// writes the Chrome trace_event export there (CI's smoke check).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/slab.hpp"
#include "obs/trace.hpp"
#include "testbed/home.hpp"

using namespace hcm;

namespace {

// One synchronous-looking invocation: adapter -> VSG -> wire -> remote
// island and back, drained to completion on the sim scheduler.
void invoke_once(sim::Scheduler& sched, testbed::SmartHome& home) {
  std::optional<Result<Value>> result;
  home.havi_adapter->invoke("laserdisc-1", "getStatus", {},
                            [&](Result<Value> r) { result = std::move(r); });
  sim::run_until_done(sched, [&] { return result.has_value(); });
  if (!result.has_value() || !result->is_ok()) {
    std::fprintf(stderr, "bench: probe invocation failed\n");
    std::exit(1);
  }
}

// Wall-clock ns per invocation for one arm configuration; best of
// `reps` batches so scheduler noise from the host doesn't inflate an
// arm. Each rep uses a fresh home so no arm inherits warm caches or
// accumulated spans from another.
double measure_arm(bool metrics_on, bool tracing_on, std::size_t calls,
                   std::size_t reps) {
  double best = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    sim::Scheduler sched;
    testbed::SmartHome home(sched);
    if (!home.refresh().is_ok()) {
      std::fprintf(stderr, "bench: refresh failed\n");
      std::exit(1);
    }
    obs::set_enabled(metrics_on);
    obs::Tracer::global().set_enabled(tracing_on);
    invoke_once(sched, home);  // warm the proxy/dispatch path

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < calls; ++i) invoke_once(sched, home);
    const auto t1 = std::chrono::steady_clock::now();

    obs::set_enabled(true);
    obs::Tracer::global().set_enabled(false);
    obs::Tracer::global().clear();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(calls);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

void contention_report(bench::JsonReport& report);

void overhead_report(const std::string& json_path) {
  bench::print_header(
      "Observability overhead: instrumented vs disabled on the cross-island "
      "hot path");
  const std::size_t calls = 1500;
  const std::size_t reps = 3;
  const double disabled = measure_arm(false, false, calls, reps);
  const double metrics = measure_arm(true, false, calls, reps);
  const double full = measure_arm(true, true, calls, reps);
  const double metrics_pct = (metrics - disabled) / disabled * 100.0;
  const double full_pct = (full - disabled) / disabled * 100.0;

  std::printf("  arm        ns/call (best of %zu x %zu calls)\n", reps, calls);
  std::printf("  disabled   %10.0f\n", disabled);
  std::printf("  metrics    %10.0f   (%+.2f%%)\n", metrics, metrics_pct);
  std::printf("  full       %10.0f   (%+.2f%%)\n", full, full_pct);
  std::printf("  -> acceptance: metrics arm within 5%% of disabled\n");

  bench::JsonReport report("bench_ext_obs_overhead");
  report.stamp_provenance();
  report.row()
      .str("arm", "disabled")
      .num("ns_per_call", disabled)
      .num("calls", calls)
      .num("reps", reps);
  report.row()
      .str("arm", "metrics")
      .num("ns_per_call", metrics)
      .num("overhead_pct", metrics_pct);
  report.row()
      .str("arm", "full")
      .num("ns_per_call", full)
      .num("overhead_pct", full_pct);
  contention_report(report);
  if (!json_path.empty() && report.write(json_path)) {
    std::printf("  (json written to %s)\n", json_path.c_str());
  }
}

// --- sharded slab vs shared atomic contention ---------------------------
//
// The PR 9 question: when N kernel shards all mutate the same metric
// family, do per-shard slabs (each thread incrementing its own slab's
// counter, merged later at window barriers) beat N threads bouncing a
// single shared atomic's cache line? Handles are resolved before the
// clock starts in both arms — the lookup cost is BM_RegistryLookup's
// problem, this measures mutation only.
double measure_contention(std::size_t shards, bool use_slabs,
                          std::size_t ops_per_thread, std::size_t reps) {
  double best = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    obs::Registry shared;
    std::optional<obs::ShardSlabs> slabs;
    std::vector<obs::Counter*> handle(shards);
    if (use_slabs) {
      slabs.emplace(static_cast<std::uint32_t>(shards));
      for (std::size_t s = 0; s < shards; ++s) {
        handle[s] = &slabs->slab(static_cast<std::uint32_t>(s))
                         .counter("bench.contention");
      }
    } else {
      obs::Counter& c = shared.counter("bench.contention");
      for (std::size_t s = 0; s < shards; ++s) handle[s] = &c;
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      workers.emplace_back([c = handle[s], ops_per_thread] {
        for (std::size_t i = 0; i < ops_per_thread; ++i) c->inc();
      });
    }
    for (std::thread& w : workers) w.join();
    const auto t1 = std::chrono::steady_clock::now();

    // Fold the slabs the way a window barrier would, and make the total
    // observable so the increments cannot be optimized away.
    std::uint64_t total = 0;
    if (use_slabs) {
      obs::Registry merged;
      slabs->merge_into(merged);
      total = merged.counter("bench.contention").value();
    } else {
      total = shared.counter("bench.contention").value();
    }
    if (total < shards * ops_per_thread) {
      std::fprintf(stderr, "bench: contention arm lost increments\n");
      std::exit(1);
    }
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(shards * ops_per_thread);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

void contention_report(bench::JsonReport& report) {
  bench::print_header(
      "Sharded slabs vs one shared atomic: ns per counter increment");
  const std::size_t ops = 2'000'000;
  const std::size_t reps = 3;
  std::printf("  shards   shared-atomic   per-shard-slab\n");
  double shared4 = 0, slab4 = 0;
  for (std::size_t shards : {1u, 2u, 4u}) {
    const double shared = measure_contention(shards, false, ops, reps);
    const double slab = measure_contention(shards, true, ops, reps);
    std::printf("  %6zu   %10.2f ns   %11.2f ns\n", shards, shared, slab);
    report.row()
        .str("arm", "contention")
        .num("shards", static_cast<std::uint64_t>(shards))
        .num("shared_atomic_ns_per_inc", shared)
        .num("slab_ns_per_inc", slab);
    if (shards == 4) {
      shared4 = shared;
      slab4 = slab;
    }
  }
  std::printf("  -> acceptance: slab < shared at 4 shards (%.2fx)\n",
              slab4 > 0 ? shared4 / slab4 : 0.0);
}

// Records one traced chain across three islands and writes the Chrome
// export — the artifact ci/check.sh smoke-tests.
void trace_export(const std::string& path) {
  sim::Scheduler sched;
  testbed::SmartHome home(sched);
  if (!home.refresh().is_ok()) {
    std::fprintf(stderr, "bench: refresh failed\n");
    std::exit(1);
  }
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const auto root = tracer.begin_span("bench.chain", "bench", sched.now());
  {
    obs::Tracer::Scope scope(tracer, tracer.context_of(root));
    invoke_once(sched, home);
    std::optional<Result<Value>> r;
    home.x10_adapter->invoke("camera-1", "startCapture", {},
                             [&](Result<Value> res) { r = std::move(res); });
    sim::run_until_done(sched, [&] { return r.has_value(); });
  }
  tracer.end_span(root, sched.now());
  if (!tracer.write_chrome(path)) {
    std::fprintf(stderr, "bench: cannot write trace to %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("  (chrome trace with %zu spans written to %s)\n",
              tracer.span_count(), path.c_str());
  tracer.set_enabled(false);
  tracer.clear();
}

// --- primitive micro-costs under google-benchmark -----------------------

void BM_CounterInc(benchmark::State& state) {
  obs::Counter c;
  for (auto _ : state) c.inc();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram h;
  std::int64_t v = 1;
  for (auto _ : state) {
    h.observe(v);
    v = v * 7 % 1000000 + 1;  // walk the buckets
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_RegistryLookup(benchmark::State& state) {
  obs::Registry reg;
  reg.counter("vsg.island.op.lamp-1.turnOn.calls");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reg.find_counter("vsg.island.op.lamp-1.turnOn.calls"));
  }
}
BENCHMARK(BM_RegistryLookup);

void BM_SpanBeginEnd(benchmark::State& state) {
  auto& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  for (auto _ : state) {
    auto id = tracer.begin_span("bench", "bench", 0);
    tracer.end_span(id, 1);
  }
  tracer.set_enabled(false);
  tracer.clear();
}
BENCHMARK(BM_SpanBeginEnd);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_arg(argc, argv);
  std::string trace_path;
  // Strip --json/--trace <path> before handing argv to the benchmark
  // library.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;
      continue;
    }
    if (std::string(argv[i]) == "--trace") {
      if (i + 1 < argc) trace_path = argv[i + 1];
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());

  overhead_report(json_path);
  if (!trace_path.empty()) trace_export(trace_path);
  benchmark::Initialize(&filtered_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
