// Wire hot-path throughput: the invocation-throughput trajectory.
//
// Every cross-island call crosses the SOAP/HTTP (or binary) backbone
// twice — encode, serialize, stream, parse on the way out, and the
// same again for the reply. This bench drives a closed loop of
// VSG-to-VSG calls and measures what the stack actually costs in host
// resources, not virtual time:
//
//   calls/sec        wall-clock throughput of the closed loop
//   allocs/call      operator-new invocations per completed call
//                    (bench_util's HCM_BENCH_ALLOC_HOOK counting hook)
//   bytes/call       heap bytes requested per completed call
//
// Two arms: the SOAP backbone (the paper's prototype protocol, the
// expensive one) and the compact binary channel (the ablation
// alternative, the floor). Payloads are a short string + int pair —
// a typical control-plane op (fig4's turnOn/getStatus class of call).
//
// A third, optional arm exercises the block pool at stream scale: N
// concurrent connections with batched send/deliver churn, reporting
// peak RSS, RSS growth after warmup (flat growth = every payload block
// recycled through the freelist) and the pool hit rate.
//
//   --json <path>    archive rows as BENCH_wire_throughput.json
//   --calls <n>      calls per arm (default 4000; CI smoke uses less)
//   --streams <n>    add the churn arm over n concurrent streams
//                    (the headline configuration is 100000)
#define HCM_BENCH_ALLOC_HOOK 1
#include "bench_util.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/block_pool.hpp"
#include "common/block_stream.hpp"
#include "core/vsg.hpp"
#include "net/network.hpp"
#include "soap/envelope.hpp"

using namespace hcm;

namespace {

InterfaceDesc probe_interface() {
  return InterfaceDesc{
      "WireProbe",
      {MethodDesc{"poke",
                  {{"tag", ValueType::kString}, {"seq", ValueType::kInt}},
                  ValueType::kString,
                  false}}};
}

struct ArmResult {
  double calls_per_sec = 0;
  double allocs_per_call = 0;
  double bytes_per_call = 0;
  double sim_us_per_call = 0;
};

// Closed-loop wall-clock measurement of `calls` sequential round trips
// between a fresh VSG pair speaking `protocol`.
ArmResult run_arm(core::VsgProtocol protocol, std::size_t calls) {
  sim::Scheduler sched;
  net::Network net{sched};
  auto& gw_a = net.add_node("gw-a");
  auto& gw_b = net.add_node("gw-b");
  auto& eth = net.add_ethernet("backbone", sim::microseconds(200), 100'000'000);
  net.attach(gw_a, eth);
  net.attach(gw_b, eth);
  core::VirtualServiceGateway callee(net, gw_a.id(), "callee", 8080, protocol);
  core::VirtualServiceGateway caller(net, gw_b.id(), "caller", 8080, protocol);
  if (!callee.start().is_ok() || !caller.start().is_ok()) {
    std::fprintf(stderr, "bench: VSG start failed\n");
    std::exit(1);
  }
  const InterfaceDesc iface = probe_interface();
  auto uri = callee.expose("probe-1", iface,
                           [](const std::string&, const ValueList& args,
                              InvokeResultFn done) {
                             std::string reply = "ack:";
                             reply += args[0].as_string();
                             done(Value(std::move(reply)));
                           });
  if (!uri.is_ok()) {
    std::fprintf(stderr, "bench: expose failed\n");
    std::exit(1);
  }

  const Value tag("status-display-update-payload-0123456789abcdef");
  // Arguments live outside the loop so the harness measures the
  // middleware's allocations, not its own argument rebuilding.
  ValueList args{tag, Value(std::int64_t{0})};
  auto invoke_once = [&](std::int64_t seq) {
    std::optional<Result<Value>> result;
    args[1] = Value(seq);
    caller.call_remote(uri.value(), "probe-1", iface, "poke", args,
                       [&](Result<Value> r) { result = std::move(r); });
    sim::run_until_done(sched, [&] { return result.has_value(); });
    if (!result.has_value() || !result->is_ok()) {
      std::fprintf(stderr, "bench: probe call failed: %s\n",
                   result.has_value() ? result->status().to_string().c_str()
                                      : "no completion");
      std::exit(1);
    }
  };

  invoke_once(-1);  // warm routes, pools and proxies
  const sim::SimTime sim0 = sched.now();
  bench::AllocDelta heap;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    invoke_once(static_cast<std::int64_t>(i));
  }
  const auto t1 = std::chrono::steady_clock::now();

  ArmResult r;
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  r.calls_per_sec = static_cast<double>(calls) / secs;
  r.allocs_per_call =
      static_cast<double>(heap.allocs()) / static_cast<double>(calls);
  r.bytes_per_call =
      static_cast<double>(heap.bytes()) / static_cast<double>(calls);
  r.sim_us_per_call = static_cast<double>(sched.now() - sim0) /
                      static_cast<double>(calls);
  return r;
}

// --- stream-churn arm: pooled blocks at 100k+ concurrent streams --------

// /proc/self/status field in kB (VmRSS, VmHWM); 0 when unavailable.
std::int64_t proc_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::int64_t kb = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::atoll(line + key_len + 1);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

struct ChurnResult {
  std::size_t streams = 0;
  int cycles = 0;
  double sends_per_sec = 0;
  std::int64_t peak_rss_kb = 0;    // VmHWM at the end of the run
  std::int64_t rss_growth_kb = 0;  // VmRSS delta, cycle 1 -> last cycle
  double pool_hit_rate = 0;        // freelist hits / total pool acquires
  std::uint64_t heap_fallbacks = 0;
};

// Holds `n_streams` concurrent connections, then cycles send/deliver
// over all of them with a bounded in-flight batch, so live messages —
// not the stream count — bound block demand. RSS must stay flat cycle
// over cycle: every payload block recycles through the freelist
// (docs/PERFORMANCE.md §"Block pool"). The first cycle is the warmup
// that grows the pool to steady state; growth is measured after it.
ChurnResult run_churn(std::size_t n_streams, int cycles) {
  // A dedicated single-lane pool bound to the driving thread (the
  // single-scheduler binding path of block_pool.hpp): the whole cap is
  // one freelist, so the steady-state in-flight batch recycles with a
  // near-1 hit rate. Declared first — everything that can still hold a
  // block (streams, pending buffers) dies before the pool does.
  BlockPool churn_pool(BlockPool::Config{.max_blocks = 2048, .lanes = 1});
  BlockPool* prev_pool = bind_thread_block_pool(&churn_pool);
  sim::Scheduler sched;
  net::Network net{sched};
  auto& gw_a = net.add_node("churn-a");
  auto& gw_b = net.add_node("churn-b");
  auto& eth = net.add_ethernet("backbone", sim::microseconds(200), 100'000'000);
  net.attach(gw_a, eth);
  net.attach(gw_b, eth);

  std::vector<net::StreamPtr> accepted;
  accepted.reserve(n_streams);
  const Status listening =
      gw_a.listen(9000, [&accepted](net::StreamPtr s) {
        // Deliver handler drops the chain, releasing its blocks.
        s->set_on_data([](BlockStream&& data) { data.clear(); });
        accepted.push_back(std::move(s));
      });
  if (!listening.is_ok()) {
    std::fprintf(stderr, "bench: churn listen failed\n");
    std::exit(1);
  }

  std::vector<net::StreamPtr> streams;
  streams.reserve(n_streams);
  // Handshakes are 1.5 RTT of simulated events; batches keep the
  // event queue (a host-memory cost) bounded while the established
  // stream count climbs to the full n_streams.
  constexpr std::size_t kBatch = 4096;
  for (std::size_t opened = 0; opened < n_streams;) {
    const std::size_t batch = std::min(kBatch, n_streams - opened);
    for (std::size_t i = 0; i < batch; ++i) {
      net.connect(gw_b.id(), {gw_a.id(), 9000},
                  [&streams](Result<net::StreamPtr> r) {
                    if (r.is_ok()) streams.push_back(std::move(r).take());
                  });
    }
    opened += batch;
    sched.run();
  }
  if (streams.size() != n_streams || accepted.size() != n_streams) {
    std::fprintf(stderr, "bench: churn connect failed (%zu/%zu up)\n",
                 streams.size(), n_streams);
    std::exit(1);
  }

  const std::string payload(512, 'x');
  const BlockPool::Stats pool0 = wire_pool().stats();
  std::int64_t rss_after_warmup = 0;
  std::uint64_t sends = 0;
  // In-flight messages, not streams, bound block demand: each send
  // batch lives in at most kSendBatch pooled blocks (under the cap),
  // released on delivery before the next batch draws them again.
  constexpr std::size_t kSendBatch = 1024;
  const auto t0 = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (std::size_t i = 0; i < streams.size();) {
      const std::size_t batch = std::min(kSendBatch, streams.size() - i);
      for (std::size_t j = 0; j < batch; ++j, ++i) {
        BlockStream data;
        data.append(payload);
        streams[i]->send(std::move(data));
        ++sends;
      }
      sched.run();  // deliver the batch; receivers release the blocks
    }
    if (cycle == 0) rss_after_warmup = proc_status_kb("VmRSS");
  }
  const auto t1 = std::chrono::steady_clock::now();

  ChurnResult r;
  r.streams = n_streams;
  r.cycles = cycles;
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  r.sends_per_sec = secs > 0 ? static_cast<double>(sends) / secs : 0;
  r.peak_rss_kb = proc_status_kb("VmHWM");
  r.rss_growth_kb = proc_status_kb("VmRSS") - rss_after_warmup;
  const BlockPool::Stats pool1 = wire_pool().stats();
  const std::uint64_t hits = pool1.pool_hits - pool0.pool_hits;
  const std::uint64_t total = hits + (pool1.fresh_blocks - pool0.fresh_blocks) +
                              (pool1.heap_fallbacks - pool0.heap_fallbacks);
  r.pool_hit_rate =
      total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0;
  r.heap_fallbacks = pool1.heap_fallbacks - pool0.heap_fallbacks;

  for (auto& s : streams) s->close();
  sched.run();
  streams.clear();
  accepted.clear();
  bind_thread_block_pool(prev_pool);
  return r;
}

void throughput_report(const std::string& json_path, std::size_t calls,
                       std::size_t churn_streams) {
  bench::print_header(
      "Wire hot-path throughput: cross-island round trips (wall clock)");
  if (!bench::alloc_hook_installed()) {
    // The hook self-registers on first counted allocation; reaching
    // this point without it means the TU was miscompiled.
    std::fprintf(stderr, "bench: allocation hook not installed\n");
  }
  struct Arm {
    const char* name;
    core::VsgProtocol protocol;
  };
  const Arm arms[] = {{"soap", core::VsgProtocol::kSoap},
                      {"binary", core::VsgProtocol::kBinary}};
  bench::JsonReport report("bench_ext_wire_throughput");
  report.stamp_provenance();
  std::printf("  %-8s %12s %14s %14s %12s\n", "path", "calls/sec",
              "allocs/call", "bytes/call", "sim-us/call");
  for (const Arm& arm : arms) {
    // Best of 3 batches so host scheduler noise doesn't penalize an arm.
    ArmResult best;
    for (int rep = 0; rep < 3; ++rep) {
      ArmResult r = run_arm(arm.protocol, calls);
      if (rep == 0 || r.calls_per_sec > best.calls_per_sec) best = r;
    }
    std::printf("  %-8s %12.0f %14.1f %14.0f %12.1f\n", arm.name,
                best.calls_per_sec, best.allocs_per_call, best.bytes_per_call,
                best.sim_us_per_call);
    report.row()
        .str("path", arm.name)
        .num("calls", static_cast<std::uint64_t>(calls))
        .num("calls_per_sec", best.calls_per_sec)
        .num("allocs_per_call", best.allocs_per_call)
        .num("bytes_per_call", best.bytes_per_call)
        .num("sim_us_per_call", best.sim_us_per_call);
  }
  if (churn_streams > 0) {
    const int cycles = 3;
    const ChurnResult c = run_churn(churn_streams, cycles);
    std::printf(
        "  churn    %zu streams x %d cycles: %.0f sends/sec, "
        "peak rss %lld kB, growth %lld kB, pool hit rate %.3f, "
        "%llu heap fallbacks\n",
        c.streams, c.cycles, c.sends_per_sec,
        static_cast<long long>(c.peak_rss_kb),
        static_cast<long long>(c.rss_growth_kb), c.pool_hit_rate,
        static_cast<unsigned long long>(c.heap_fallbacks));
    report.row()
        .str("path", "churn")
        .num("streams", static_cast<std::uint64_t>(c.streams))
        .num("cycles", static_cast<std::uint64_t>(c.cycles))
        .num("sends_per_sec", c.sends_per_sec)
        .num("peak_rss_kb", static_cast<double>(c.peak_rss_kb))
        .num("rss_growth_kb", static_cast<double>(c.rss_growth_kb))
        .num("pool_hit_rate", c.pool_hit_rate)
        .num("heap_fallbacks", static_cast<double>(c.heap_fallbacks));
  }
  if (!json_path.empty() && report.write(json_path)) {
    std::printf("  (json written to %s)\n", json_path.c_str());
  }
}

// --- micro-costs of the codec primitives under google-benchmark ---------

void BM_SoapBuildCall(benchmark::State& state) {
  const soap::NamedValues params = {
      {"tag", Value("status-display-update-payload-0123456789abcdef")},
      {"seq", Value(std::int64_t{42})}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        soap::build_call("urn:hcm:WireProbe", "poke", params));
  }
}
BENCHMARK(BM_SoapBuildCall);

void BM_SoapParseEnvelope(benchmark::State& state) {
  const std::string body = soap::build_call(
      "urn:hcm:WireProbe", "poke",
      {{"tag", Value("status-display-update-payload-0123456789abcdef")},
       {"seq", Value(std::int64_t{42})}});
  for (auto _ : state) {
    auto env = soap::parse_envelope(body);
    benchmark::DoNotOptimize(env);
  }
}
BENCHMARK(BM_SoapParseEnvelope);

void BM_SoapRoundTrip(benchmark::State& state) {
  const soap::NamedValues params = {
      {"tag", Value("status-display-update-payload-0123456789abcdef")},
      {"seq", Value(std::int64_t{42})}};
  for (auto _ : state) {
    auto env = soap::parse_envelope(
        soap::build_call("urn:hcm:WireProbe", "poke", params));
    benchmark::DoNotOptimize(env);
  }
}
BENCHMARK(BM_SoapRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_arg(argc, argv);
  std::size_t calls = 4000;
  std::size_t churn_streams = 0;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;
      continue;
    }
    if (std::string(argv[i]) == "--calls") {
      if (i + 1 < argc) calls = static_cast<std::size_t>(std::atoll(argv[i + 1]));
      ++i;
      continue;
    }
    if (std::string(argv[i]) == "--streams") {
      if (i + 1 < argc) {
        churn_streams = static_cast<std::size_t>(std::atoll(argv[i + 1]));
      }
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());

  throughput_report(json_path, calls, churn_streams);
  benchmark::Initialize(&filtered_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
