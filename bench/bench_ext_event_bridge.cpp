// Event-bridge extension bench: fan-out behaviour of the cross-island
// event bridge (core/event_router). One origin event source — the HAVi
// VCR's transportChanged — with N subscriber leases spread across the
// other islands; a burst of events is injected at the origin and the
// bridge's delivery latency, throughput and batching are measured as N
// grows.
//
// Expected shape: latency stays flat (one backbone hop + the 10 ms
// batch window, regardless of N) while total deliveries and backbone
// traffic grow linearly with N — the cost of fan-out is paid in
// bandwidth, not in per-subscriber latency, because each subscriber
// has its own bounded queue and batch timer.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "common/value_codec.hpp"
#include "core/event_router.hpp"
#include "testbed/home.hpp"

using namespace hcm;

namespace {

constexpr int kEvents = 24;
constexpr sim::Duration kEventSpacing = sim::milliseconds(25);

struct FanoutRun {
  bench::Stats latency;  // per-delivery, emit -> subscriber handler, ms
  std::uint64_t delivered = 0;
  std::uint64_t batches = 0;
  std::uint64_t dropped = 0;
  std::size_t refused = 0;  // subscriptions the bridge did not grant
  std::uint64_t backbone_bytes = 0;
  double deliveries_per_s = 0;  // virtual-time throughput over the burst
};

FanoutRun run_fanout(std::size_t subscribers) {
  sim::Scheduler sched;
  testbed::SmartHome home(sched);
  (void)home.refresh();

  // Subscriber leases round-robin across the non-origin islands, so
  // fan-out crosses several distinct VSG-to-VSG paths at once.
  const char* islands[] = {"jini-island", "x10-island", "mail-island"};

  std::map<std::int64_t, sim::SimTime> emitted;  // seq -> emit time
  std::vector<double> latency;
  sim::SimTime last_delivery = 0;

  std::size_t ready = 0;
  std::size_t answered = 0;
  for (std::size_t i = 0; i < subscribers; ++i) {
    home.meta->island(islands[i % 3])
        ->events->subscribe(
            "vcr-1", "transportChanged",
            [&](const std::string&, const std::string&, const Value& payload) {
              const auto it = emitted.find(payload.at("seq").as_int());
              if (it == emitted.end()) return;
              latency.push_back(bench::to_ms(sched.now() - it->second));
              last_delivery = sched.now();
            },
            [&](Result<std::string> r) {
              ++answered;
              if (r.is_ok()) {
                ++ready;
              } else {
                std::fprintf(stderr, "  subscribe refused: %s\n",
                             r.status().to_string().c_str());
              }
            });
  }
  sim::run_until_done(sched, [&] { return answered == subscribers; });

  auto& origin = *home.meta->island("havi-island")->events;
  const auto bytes0 = home.backbone->bytes_carried();
  const sim::SimTime burst_start = sched.now();

  for (int i = 0; i < kEvents; ++i) {
    sched.after(kEventSpacing * i, [&, i] {
      emitted[i] = sched.now();
      origin.on_native_event(
          "vcr-1", "transportChanged",
          Value(ValueMap{{"seq", Value(std::int64_t{i})}}));
    });
  }

  // Bounded drain: run in slices until every delivery landed (or give
  // up after a generous window — drops would show in the counters).
  const std::size_t expected = kEvents * subscribers;
  for (int guard = 0; guard < 300 && latency.size() < expected; ++guard) {
    sched.run_for(sim::milliseconds(100));
  }

  FanoutRun out;
  out.latency = bench::stats_of(latency);
  out.delivered = origin.events_delivered() + [&] {
    std::uint64_t n = 0;
    for (const char* island : islands) {
      n += home.meta->island(island)->events->events_delivered();
    }
    return n;
  }();
  out.batches = origin.batches_sent();
  out.dropped = origin.events_dropped();
  out.refused = subscribers - ready;  // refused, or never answered
  out.backbone_bytes = home.backbone->bytes_carried() - bytes0;
  if (last_delivery > burst_start) {
    out.deliveries_per_s = static_cast<double>(latency.size()) /
                           (bench::to_ms(last_delivery - burst_start) / 1e3);
  }
  return out;
}

// Returns false when a row lost a subscription or an event: every
// subscriber must receive all kEvents.
bool fanout_report() {
  bool ok = true;
  bench::print_header(
      "Event bridge  fan-out: one origin, N cross-island subscribers");
  std::printf("  %d events injected %.0f ms apart at the HAVi origin\n\n",
              kEvents, bench::to_ms(kEventSpacing));
  std::printf(
      "  subs   latency mean      p95    deliveries  del/s   batches  "
      "backbone B\n");
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u}) {
    FanoutRun r = run_fanout(n);
    std::printf(
        "  %4zu  %9.1f ms %8.1f ms  %6zu      %6.0f  %7llu  %9llu\n", n,
        r.latency.mean, r.latency.p95, r.latency.n, r.deliveries_per_s,
        static_cast<unsigned long long>(r.batches),
        static_cast<unsigned long long>(r.backbone_bytes));
    if (r.dropped > 0) {
      std::printf("        (%llu dropped by backpressure)\n",
                  static_cast<unsigned long long>(r.dropped));
    }
    if (r.refused > 0 || r.latency.n < kEvents * n) {
      std::fprintf(stderr,
                   "  FAIL: %zu subscribers: %zu refused, %zu of %zu "
                   "deliveries\n",
                   n, r.refused, r.latency.n, kEvents * n);
      ok = false;
    }
  }
  std::printf(
      "\n  -> per-delivery latency is flat in N; traffic and throughput\n"
      "     scale linearly — fan-out costs bandwidth, not latency.\n");
  return ok;
}

// CPU side: encoding/decoding one deliver() batch payload, the codec
// work each batch costs a gateway.
void BM_EventBatchCodec(benchmark::State& state) {
  ValueList batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(Value(ValueMap{
        {"sub", Value(std::string("havi-island/esub-1"))},
        {"seq", Value(std::int64_t{i})},
        {"payload", Value(ValueMap{{"state", Value(std::string("playing"))}})},
    }));
  }
  Value v{batch};
  for (auto _ : state) {
    auto bytes = encode_value(v);
    auto back = decode_value(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_EventBatchCodec);

}  // namespace

int main(int argc, char** argv) {
  const bool ok = fanout_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
