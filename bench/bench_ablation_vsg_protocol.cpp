// Ablation — §3.1: "How the protocol should we choose depends on the
// purpose of service integration ... a simple protocol is enough to
// integrate simple services. We implement the prototype of our
// framework with SOAP." This bench swaps the VSG wire protocol between
// SOAP/XML-over-HTTP and the compact binary channel and measures what
// the choice costs: bytes on the backbone, call latency, and codec CPU.
//
// Expected shape: binary moves ~10x fewer bytes and parses ~10x faster,
// but end-to-end latency barely moves (device + network dominate) —
// which is why the paper could afford SOAP's interoperability.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/value_codec.hpp"
#include "net/binary_channel.hpp"
#include "soap/envelope.hpp"
#include "testbed/home.hpp"

using namespace hcm;

namespace {

struct ProtocolRun {
  double mean_latency_ms = 0;
  std::uint64_t backbone_bytes = 0;
  std::uint64_t backbone_frames = 0;
};

ProtocolRun run_mix(core::VsgProtocol protocol) {
  sim::Scheduler sched;
  testbed::SmartHomeOptions options;
  options.protocol = protocol;
  testbed::SmartHome home(sched, options);
  (void)home.refresh();

  const auto bytes_before = home.backbone->bytes_carried();
  const auto frames_before = home.backbone->frames_carried();

  constexpr int kCalls = 40;
  std::vector<double> latencies;
  for (int i = 0; i < kCalls; ++i) {
    sim::SimTime t0 = sched.now();
    std::optional<Result<Value>> r;
    // Alternate a cheap status query and a stateful command.
    if (i % 2 == 0) {
      home.jini_adapter->invoke("camera-1", "getStatus", {},
                                [&](Result<Value> v) { r = std::move(v); });
    } else {
      home.havi_adapter->invoke("laserdisc-1", "getStatus", {},
                                [&](Result<Value> v) { r = std::move(v); });
    }
    sim::run_until_done(sched, [&] { return r.has_value(); });
    if (r->is_ok()) latencies.push_back(bench::to_ms(sched.now() - t0));
  }

  ProtocolRun out;
  out.mean_latency_ms = bench::stats_of(latencies).mean;
  out.backbone_bytes = home.backbone->bytes_carried() - bytes_before;
  out.backbone_frames = home.backbone->frames_carried() - frames_before;
  return out;
}

void ablation_report() {
  bench::print_header(
      "Ablation  VSG wire protocol: SOAP/HTTP vs compact binary");

  auto soap_run = run_mix(core::VsgProtocol::kSoap);
  auto binary_run = run_mix(core::VsgProtocol::kBinary);

  std::printf("  protocol   mean call latency   backbone bytes (40 calls)\n");
  std::printf("  SOAP       %12.2f ms     %12llu\n", soap_run.mean_latency_ms,
              static_cast<unsigned long long>(soap_run.backbone_bytes));
  std::printf("  binary     %12.2f ms     %12llu\n",
              binary_run.mean_latency_ms,
              static_cast<unsigned long long>(binary_run.backbone_bytes));
  std::printf(
      "\n  SOAP costs %.1fx the bytes for %.1f%% extra latency — the\n"
      "  interoperability tax the paper accepts (\"simple protocol,\n"
      "  easy for implementation, existing infrastructure\").\n",
      static_cast<double>(soap_run.backbone_bytes) /
          static_cast<double>(binary_run.backbone_bytes ? binary_run.backbone_bytes : 1),
      100.0 * (soap_run.mean_latency_ms - binary_run.mean_latency_ms) /
          (binary_run.mean_latency_ms > 0 ? binary_run.mean_latency_ms : 1));

  // Per-message wire sizes for the same logical call.
  soap::NamedValues params{{"channel", Value(7)}};
  auto soap_wire = soap::build_call("urn:hcm:Tuner", "setChannel", params);
  auto binary_wire =
      net::encode_request(1, "tuner-1", "setChannel", {Value(7)});
  std::printf("\n  one setChannel(7) request: SOAP=%zu bytes, binary=%zu "
              "bytes (%.1fx)\n",
              soap_wire.size(), binary_wire.size(),
              static_cast<double>(soap_wire.size()) /
                  static_cast<double>(binary_wire.size()));
}

// Codec CPU: XML envelope vs binary value, same payload.
Value bench_payload() {
  return Value(ValueMap{
      {"title", Value("Evening News")},
      {"channel", Value(12)},
      {"minutes", Value(30)},
      {"tags", Value(ValueList{Value("news"), Value("live")})},
  });
}

void BM_SoapEncodeDecode(benchmark::State& state) {
  soap::NamedValues params{{"payload", bench_payload()}};
  for (auto _ : state) {
    auto wire = soap::build_call("urn:hcm:Svc", "put", params);
    auto env = soap::parse_envelope(wire);
    benchmark::DoNotOptimize(env);
  }
}
BENCHMARK(BM_SoapEncodeDecode);

void BM_BinaryEncodeDecode(benchmark::State& state) {
  Value payload = bench_payload();
  for (auto _ : state) {
    auto wire = encode_value(payload);
    auto decoded = decode_value(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_BinaryEncodeDecode);

}  // namespace

int main(int argc, char** argv) {
  ablation_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
