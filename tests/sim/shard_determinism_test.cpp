// Tier-1 sharding determinism audit (ISSUE 8 satellite): the fig. 4
// scenario through the sharded kernel must be
//   (a) byte-identical to the legacy single-threaded kernel at 1 shard
//       (same trace hash, same event count, same end time), and
//   (b) bit-identically repeatable at 2 and 4 shards (per-shard trace
//       digests folded in shard order).
// Plus the same double-run contract for the City scale testbed.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_util.hpp"
#include "sim/sharded_kernel.hpp"
#include "sim/trace.hpp"
#include "testbed/city.hpp"
#include "testbed/home.hpp"

namespace hcm {
namespace {

struct ShardedTrace {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  sim::SimTime end_time = 0;
};

// The fig. 4 transaction driven through a sharded kernel: subscribe a
// cross-island event bridge, toggle the desk lamp from Jini six
// times, run the VCR so transportChanged crosses the bridge. Mirrors
// run_fig4_scenario in determinism_test.cpp, with the scheduler
// drains swapped for kernel window loops.
ShardedTrace run_fig4_sharded(std::uint64_t seed, sim::ShardId shards) {
  sim::ShardedKernelOptions kopts;
  kopts.shards = shards;
  sim::ShardedKernel kernel(kopts);
  kernel.seed(seed);
  std::vector<std::unique_ptr<sim::TraceRecorder>> traces;
  traces.reserve(shards);
  for (sim::ShardId s = 0; s < shards; ++s) {
    traces.push_back(std::make_unique<sim::TraceRecorder>(kernel.shard(s)));
  }
  testbed::SmartHome home(kernel);
  EXPECT_TRUE(home.refresh().is_ok());

  const sim::ShardId jini_shard = home.island_shard("jini-island");
  std::optional<Result<std::string>> lease;
  std::uint64_t delivered = 0;
  kernel.run_as(jini_shard, [&] {
    home.meta->island("jini-island")
        ->events->subscribe(
            "vcr-1", "transportChanged",
            [&](const std::string&, const std::string&, const Value&) {
              ++delivered;
            },
            [&](Result<std::string> r) { lease = std::move(r); });
  });
  kernel.run_until_done([&] { return lease.has_value(); });
  EXPECT_TRUE(lease.has_value() && lease->is_ok());

  for (int i = 0; i < 6; ++i) {
    std::optional<Result<Value>> r;
    kernel.run_as(jini_shard, [&] {
      home.jini_adapter->invoke("desk-lamp", i % 2 == 0 ? "turnOn" : "turnOff",
                                {}, [&](Result<Value> v) { r = std::move(v); });
    });
    kernel.run_until_done([&] { return r.has_value(); });
    EXPECT_TRUE(r.has_value());
    if (r.has_value()) {
      EXPECT_TRUE(r->is_ok()) << r->status().to_string();
    }
  }

  for (const char* method : {"record", "stop"}) {
    std::optional<Result<Value>> r;
    kernel.run_as(jini_shard, [&] {
      ValueList args;
      if (std::string(method) == "record")
        args.push_back(Value(std::int64_t{1}));
      home.jini_adapter->invoke("vcr-1", method, args,
                                [&](Result<Value> v) { r = std::move(v); });
    });
    kernel.run_until_done([&] { return r.has_value(); });
    EXPECT_TRUE(r.has_value());
  }
  kernel.run_for(sim::seconds(1));
  EXPECT_GE(delivered, 2u);

  sim::TraceHash combined;
  std::uint64_t events = 0;
  for (const auto& t : traces) {
    combined.mix(t->digest());
    events += t->events();
  }
  return {combined.digest(), events, kernel.now()};
}

// The legacy twin of run_fig4_sharded, kept in lockstep with it (not
// with determinism_test.cpp's variant, which drains differently).
ShardedTrace run_fig4_legacy(std::uint64_t seed) {
  sim::Scheduler sched;
  sched.seed(seed);
  sim::TraceRecorder trace(sched);
  testbed::SmartHome home(sched);
  EXPECT_TRUE(home.refresh().is_ok());

  std::optional<Result<std::string>> lease;
  std::uint64_t delivered = 0;
  home.meta->island("jini-island")
      ->events->subscribe(
          "vcr-1", "transportChanged",
          [&](const std::string&, const std::string&, const Value&) {
            ++delivered;
          },
          [&](Result<std::string> r) { lease = std::move(r); });
  sim::run_until_done(sched, [&] { return lease.has_value(); });
  EXPECT_TRUE(lease.has_value() && lease->is_ok());

  for (int i = 0; i < 6; ++i) {
    std::optional<Result<Value>> r;
    home.jini_adapter->invoke("desk-lamp", i % 2 == 0 ? "turnOn" : "turnOff",
                              {}, [&](Result<Value> v) { r = std::move(v); });
    sim::run_until_done(sched, [&] { return r.has_value(); });
    EXPECT_TRUE(r.has_value());
  }
  for (const char* method : {"record", "stop"}) {
    std::optional<Result<Value>> r;
    ValueList args;
    if (std::string(method) == "record") args.push_back(Value(std::int64_t{1}));
    home.jini_adapter->invoke("vcr-1", method, args,
                              [&](Result<Value> v) { r = std::move(v); });
    sim::run_until_done(sched, [&] { return r.has_value(); });
    EXPECT_TRUE(r.has_value());
  }
  sched.run_for(sim::seconds(1));
  EXPECT_GE(delivered, 2u);
  return {trace.digest(), trace.events(), sched.now()};
}

TEST(ShardDeterminismTest, OneShardMatchesLegacyTraceHash) {
  const ShardedTrace legacy = run_fig4_legacy(42);
  const ShardedTrace sharded = run_fig4_sharded(42, 1);
  ASSERT_GT(legacy.events, 0u);
  EXPECT_EQ(legacy.events, sharded.events);
  EXPECT_EQ(legacy.end_time, sharded.end_time);
  // At 1 shard the combined digest is FNV over the single shard's
  // digest; compare apples to apples.
  sim::TraceHash folded;
  folded.mix(legacy.digest);
  EXPECT_EQ(folded.digest(), sharded.digest)
      << "1-shard kernel diverged from the legacy single-threaded kernel";
}

TEST(ShardDeterminismTest, TwoShardDoubleRunIdentical) {
  const ShardedTrace a = run_fig4_sharded(42, 2);
  const ShardedTrace b = run_fig4_sharded(42, 2);
  ASSERT_GT(a.events, 0u);
  EXPECT_EQ(a.digest, b.digest)
      << "2-shard dispatch sequences diverged between identical runs";
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(ShardDeterminismTest, FourShardDoubleRunIdentical) {
  const ShardedTrace a = run_fig4_sharded(42, 4);
  const ShardedTrace b = run_fig4_sharded(42, 4);
  ASSERT_GT(a.events, 0u);
  EXPECT_EQ(a.digest, b.digest)
      << "4-shard dispatch sequences diverged between identical runs";
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(CityTest, ShardedCityIsDeterministicAndDelivers) {
  auto run_once = [] {
    sim::ShardedKernelOptions kopts;
    kopts.shards = 4;
    sim::ShardedKernel kernel(kopts);
    std::vector<std::unique_ptr<sim::TraceRecorder>> traces;
    for (sim::ShardId s = 0; s < 4; ++s) {
      traces.push_back(std::make_unique<sim::TraceRecorder>(kernel.shard(s)));
    }
    testbed::CityOptions copts;
    copts.islands = 8;
    copts.devices_per_island = 4;
    testbed::City city(kernel, copts);
    city.start();
    kernel.run_for(sim::seconds(5));
    sim::TraceHash combined;
    for (const auto& t : traces) combined.mix(t->digest());
    return std::make_tuple(combined.digest(), city.reports_received(),
                           city.ring_calls_ok(), kernel.clamped_deliveries());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<1>(a), 0u);  // device reports flowed
  EXPECT_GT(std::get<2>(a), 0u);  // cross-shard ring calls completed
  EXPECT_EQ(std::get<3>(a), 0u);  // lookahead contract never violated
}

TEST(CityTest, WarmReportsAllocateNothing) {
  // Device reports on two shards: each tick fills a recycled datagram
  // buffer, and the gateway's delivery hands it back to its shard's
  // spare list. The ring calls are pushed out past the run (each
  // island makes its first one during the warm-up), so only reports,
  // windows and barriers are measured.
  sim::ShardedKernelOptions kopts;
  kopts.shards = 2;
  sim::ShardedKernel kernel(kopts);
  testbed::CityOptions copts;
  copts.islands = 4;
  copts.devices_per_island = 8;
  copts.ring_period = sim::seconds(3600);
  testbed::City city(kernel, copts);
  city.start();
  kernel.run_for(sim::seconds(2));
  ASSERT_TRUE(bench::alloc_hook_installed());
  const std::uint64_t reports0 = city.reports_received();
  bench::AllocDelta delta;
  kernel.run_for(sim::seconds(5));
  const std::uint64_t allocs = delta.allocs();
  const std::uint64_t reports = city.reports_received() - reports0;
  ASSERT_GT(reports, 0u);
  const double per_report =
      static_cast<double>(allocs) / static_cast<double>(reports);
  EXPECT_LT(per_report, 0.1) << allocs << " allocations, " << reports
                             << " reports";
  EXPECT_EQ(city.ring_calls_ok(), copts.islands);
}

}  // namespace
}  // namespace hcm
