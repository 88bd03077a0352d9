// Shard-scaling sweep for the conservative-window kernel (ISSUE 8
// acceptance shape). Holds the City workload constant (islands x
// devices x virtual time) and sweeps the shard count 1 -> 4, reporting
//   - wall-clock ms per run and the wall speedup vs 1 shard,
//   - per-shard busy time and the parallel-efficiency estimate
//     sum(busy)/max(busy) — the achievable speedup on a machine with
//     >= shards free cores (CI containers are often core-starved, so
//     the wall column alone under-reports the kernel; EXPERIMENTS.md
//     discusses both),
//   - the combined per-shard trace digest, run twice at each shard
//     count to pin bit-identical repeatability, and
//   - cross-shard post / clamp counters (clamped must stay 0: the
//     lookahead contract holds for the backbone topology).
// --smoke additionally runs the 1,000-island / 100k-device city on 4
// shards (the scenario ROADMAP calls infeasible single-threaded) and
// reports its completion; with --series <path> that smoke run also
// carries the PR 9 telemetry loop — per-shard metric slabs, a
// TimeSeriesRecorder on the window barriers and a shard-liveness
// health rule — and writes the series dump there (ci/check.sh feeds
// it to hcm_top). --json <path> archives everything
// (BENCH_shard_scaling.json).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/shard_pools.hpp"
#include "obs/health.hpp"
#include "obs/slab.hpp"
#include "obs/timeseries.hpp"
#include "sim/sharded_kernel.hpp"
#include "sim/trace.hpp"
#include "testbed/city.hpp"

using namespace hcm;

namespace {

struct RunResult {
  double wall_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;  // per-shard digests combined in shard order
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t clamped = 0;
  std::uint64_t reports = 0;
  std::uint64_t ring_ok = 0;
  double est_speedup = 1.0;  // sum(busy)/max(busy) across shards
};

RunResult run_city(sim::ShardId shards, const testbed::CityOptions& copts,
                   sim::Duration run_for,
                   const std::string& series_path = {}) {
  sim::ShardedKernelOptions kopts;
  kopts.shards = shards;
  sim::ShardedKernel kernel(kopts);
  // One recorder per slab; the combined digest folds them in shard
  // order, so it is stable iff every shard's dispatch sequence is.
  std::vector<std::unique_ptr<sim::TraceRecorder>> traces;
  traces.reserve(shards);
  for (sim::ShardId s = 0; s < shards; ++s) {
    traces.push_back(std::make_unique<sim::TraceRecorder>(kernel.shard(s)));
  }
  // Per-shard wire block pools: each worker's messages draw from its
  // own freelist. Destroyed after the city (declared before it), when
  // every in-flight block has been released.
  net::ShardBlockPools wire_pools(kernel);
  // --series: the PR 9 telemetry loop riding along — per-shard slabs,
  // the recorder sampling at window barriers, and one liveness rule so
  // the dump carries health state for hcm_top. Declared after the
  // kernel: the recorder detaches its window hook before the kernel
  // dies.
  std::optional<obs::ShardSlabs> slabs;
  std::optional<obs::HealthMonitor> health;
  std::optional<obs::TimeSeriesRecorder> recorder;
  if (!series_path.empty()) {
    slabs.emplace(shards);
    obs::TimeSeriesOptions topts;
    topts.tiers = {{sim::milliseconds(100), 600},
                   {sim::seconds(1), 120},
                   {sim::seconds(10), 180}};
    topts.prefixes = {"vsg.", "events.", "obs.health.", "wire."};
    topts.max_series = 2000;  // a 1,000-island fleet is far larger
    health.emplace();
    const Status rule = health->add_rule_spec(
        "shard-stall: rate(sim.shard.*.events, window=500ms) < 1");
    if (!rule.is_ok()) {
      std::fprintf(stderr, "bench: bad health rule: %s\n",
                   rule.message().c_str());
      std::exit(1);
    }
    recorder.emplace(std::move(topts));
    recorder->set_health(&*health);
    // Fresh pool occupancy at every grid point (hcm_top's WIRE POOL
    // panel reads these series from the dump).
    recorder->set_pre_sample(
        [&wire_pools] { net::publish_wire_pool_gauges(&wire_pools); });
    recorder->attach(kernel);
  }
  testbed::City city(kernel, copts);
  city.start();

  const auto t0 = std::chrono::steady_clock::now();
  kernel.run_for(run_for);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
      1000.0;
  r.events = kernel.events_processed();
  sim::TraceHash combined;
  for (const auto& t : traces) combined.mix(t->digest());
  r.digest = combined.digest();
  r.windows = kernel.windows_run();
  r.cross_posts = kernel.cross_shard_posts();
  r.clamped = kernel.clamped_deliveries();
  r.reports = city.reports_received();
  r.ring_ok = city.ring_calls_ok();
  const auto busy = kernel.busy_ns();
  std::uint64_t sum = 0, peak = 0;
  for (auto b : busy) {
    sum += b;
    if (b > peak) peak = b;
  }
  if (peak > 0) r.est_speedup = static_cast<double>(sum) / peak;
  if (recorder.has_value()) {
    if (!recorder->write_json(series_path)) {
      std::fprintf(stderr, "bench: cannot write series dump to %s\n",
                   series_path.c_str());
      std::exit(1);
    }
    std::printf(
        "  series: %zu series, %llu samples, health=%s, hash=%016llx -> %s\n",
        recorder->series_count(),
        static_cast<unsigned long long>(recorder->samples_taken()),
        obs::to_string(health->overall()),
        static_cast<unsigned long long>(recorder->series_hash()),
        series_path.c_str());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json = bench::json_path_arg(argc, argv);
  bool smoke = false;
  std::string series_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
    if (std::string(argv[i]) == "--series" && i + 1 < argc) {
      series_path = argv[i + 1];
    }
  }

  testbed::CityOptions copts;
  copts.islands = 32;
  copts.devices_per_island = 8;
  copts.device_period = sim::milliseconds(200);
  copts.ring_period = sim::milliseconds(500);
  const sim::Duration virtual_time = sim::seconds(30);

  bench::JsonReport report("shard_scaling");
  report.stamp_provenance();
  bench::print_header(
      "bench_ext_shard_scaling: conservative-window kernel, City workload");
  std::printf("  islands=%zu devices=%zu virtual=%llds\n", copts.islands,
              copts.islands * copts.devices_per_island,
              static_cast<long long>(virtual_time / 1'000'000));

  double wall_1shard = 0;
  for (sim::ShardId shards : {1u, 2u, 4u}) {
    const RunResult a = run_city(shards, copts, virtual_time);
    const RunResult b = run_city(shards, copts, virtual_time);
    const bool repeatable = a.digest == b.digest && a.events == b.events;
    if (shards == 1) wall_1shard = a.wall_ms;
    const double wall_speedup = a.wall_ms > 0 ? wall_1shard / a.wall_ms : 0;
    std::printf(
        "  shards=%u  wall=%9.1f ms  events=%-9llu windows=%-7llu "
        "xposts=%-7llu clamped=%llu  est_speedup=%.2fx wall_speedup=%.2fx  "
        "digest=%016llx %s\n",
        shards, a.wall_ms, static_cast<unsigned long long>(a.events),
        static_cast<unsigned long long>(a.windows),
        static_cast<unsigned long long>(a.cross_posts),
        static_cast<unsigned long long>(a.clamped), a.est_speedup,
        wall_speedup, static_cast<unsigned long long>(a.digest),
        repeatable ? "[repeatable]" : "[DIGEST MISMATCH]");
    report.row()
        .str("scenario", "sweep")
        .num("shards", static_cast<std::uint64_t>(shards))
        .num("wall_ms", a.wall_ms)
        .num("wall_ms_run2", b.wall_ms)
        .num("events", a.events)
        .num("windows", a.windows)
        .num("cross_shard_posts", a.cross_posts)
        .num("clamped_deliveries", a.clamped)
        .num("reports", a.reports)
        .num("ring_calls_ok", a.ring_ok)
        .num("est_speedup", a.est_speedup)
        .num("wall_speedup", wall_speedup)
        .str("digest", std::to_string(a.digest))
        .str("repeatable", repeatable ? "yes" : "no");
    if (!repeatable) {
      std::fprintf(stderr, "FATAL: trace digest not repeatable at %u shards\n",
                   shards);
      return 1;
    }
    if (a.clamped != 0) {
      std::fprintf(stderr, "FATAL: %llu clamped deliveries at %u shards\n",
                   static_cast<unsigned long long>(a.clamped), shards);
      return 1;
    }
  }

  if (smoke) {
    testbed::CityOptions big;
    big.islands = 1000;
    big.devices_per_island = 100;
    big.device_period = sim::seconds(2);
    big.ring_period = sim::seconds(1);
    const RunResult r = run_city(4, big, sim::milliseconds(2500), series_path);
    std::printf(
        "  smoke: 1000 islands / 100k devices, 4 shards: wall=%.1f ms "
        "events=%llu reports=%llu ring_ok=%llu windows=%llu -> %s\n",
        r.wall_ms, static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.reports),
        static_cast<unsigned long long>(r.ring_ok),
        static_cast<unsigned long long>(r.windows),
        r.events > 0 && r.reports > 0 ? "completed" : "FAILED");
    report.row()
        .str("scenario", "smoke_1000x100")
        .num("shards", std::uint64_t{4})
        .num("wall_ms", r.wall_ms)
        .num("events", r.events)
        .num("reports", r.reports)
        .num("ring_calls_ok", r.ring_ok)
        .num("windows", r.windows)
        .num("clamped_deliveries", r.clamped)
        .num("est_speedup", r.est_speedup);
    if (r.events == 0 || r.reports == 0) return 1;
  }

  if (!json.empty()) report.write(json);
  return 0;
}
