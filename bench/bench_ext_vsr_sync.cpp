// VSR synchronization bench: snapshot vs delta refresh across a mesh of
// islands sharing one backbone registry. Sweeps islands x services x
// churn and reports per-refresh-round latency and backbone traffic for
// both Pcm sync modes.
//
// Expected shape: with zero churn the delta arm's steady-state cost is
// flat in S (one renewOrigin + one empty changesSince per island per
// round) while the snapshot arm republishes and re-lists everything, so
// its latency and bytes grow linearly with S. Under churn the delta arm
// pays O(changed entries) — WSDL bodies move only for descriptions a
// client has never seen.
//
// Host-side cost rides along: allocs_per_round and heap_bytes_per_round
// count the heap traffic of the measured refresh rounds (bench_util's
// HCM_BENCH_ALLOC_HOOK counting hook), excluding the churn edits.
#define HCM_BENCH_ALLOC_HOOK 1
#include "bench_util.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/pcm.hpp"
#include "core/vsg.hpp"
#include "core/vsr.hpp"

using namespace hcm;

namespace {

// Representative device interface (a handful of methods plus an event)
// so each service's WSDL has realistic bulk.
InterfaceDesc device_interface() {
  InterfaceDesc iface{
      "DeviceControl",
      {
          MethodDesc{"turnOn", {}, ValueType::kBool, false},
          MethodDesc{"turnOff", {}, ValueType::kBool, false},
          MethodDesc{"setLevel",
                     {{"level", ValueType::kInt}},
                     ValueType::kBool,
                     false},
          MethodDesc{"getStatus", {}, ValueType::kMap, false},
      }};
  iface.events.push_back(MethodDesc{
      "stateChanged", {{"on", ValueType::kBool}}, ValueType::kNull, true});
  return iface;
}

// Minimal in-memory middleware: a mutable native service list (the
// churn knob) and a recording export table. Keeps adapters, devices and
// the event bridge out of the measurement — everything on the backbone
// is VSR synchronization traffic.
class SyntheticAdapter : public core::MiddlewareAdapter {
 public:
  [[nodiscard]] std::string middleware_name() const override {
    return "synthetic";
  }

  void list_services(ServicesFn done) override {
    std::vector<core::LocalService> out;
    out.reserve(services_.size());
    for (const auto& [name, s] : services_) out.push_back(s);
    done(std::move(out));
  }

  void invoke(const std::string&, const std::string&, const ValueList&,
              InvokeResultFn done) override {
    done(Value(true));
  }

  [[nodiscard]] Status export_service(const core::LocalService& service,
                                      ServiceHandler) override {
    exported_.insert(service.name);
    return Status::ok();
  }
  void unexport_service(const std::string& name) override {
    exported_.erase(name);
  }

  void add_service(const std::string& name) {
    core::LocalService s;
    s.name = name;
    s.interface = device_interface();
    services_[name] = std::move(s);
  }
  void remove_service(const std::string& name) { services_.erase(name); }
  [[nodiscard]] std::size_t exported_count() const {
    return exported_.size();
  }

 private:
  std::map<std::string, core::LocalService> services_;
  std::set<std::string> exported_;
};

struct Mesh {
  sim::Scheduler sched;
  net::Network net{sched};
  net::EthernetSegment* backbone = nullptr;
  std::unique_ptr<core::VsrServer> vsr;

  struct IslandBox {
    std::unique_ptr<core::VirtualServiceGateway> vsg;
    std::unique_ptr<core::Pcm> pcm;
    SyntheticAdapter* adapter = nullptr;  // owned by pcm
  };
  std::vector<IslandBox> islands;

  Mesh(std::size_t n_islands, std::size_t services_per_island,
       core::Pcm::SyncMode mode) {
    backbone = &net.add_ethernet("backbone", sim::milliseconds(5), 10'000'000);
    auto& vsr_node = net.add_node("vsr-host");
    net.attach(vsr_node, *backbone);
    vsr = std::make_unique<core::VsrServer>(net, vsr_node.id());
    (void)vsr->start();
    for (std::size_t i = 0; i < n_islands; ++i) {
      const std::string island = "island-" + std::to_string(i);
      auto& gw = net.add_node(island + "-gw");
      net.attach(gw, *backbone);
      IslandBox box;
      box.vsg = std::make_unique<core::VirtualServiceGateway>(net, gw.id(),
                                                              island);
      (void)box.vsg->start();
      auto adapter = std::make_unique<SyntheticAdapter>();
      box.adapter = adapter.get();
      for (std::size_t k = 0; k < services_per_island; ++k) {
        adapter->add_service(island + "-svc-" + std::to_string(k));
      }
      box.pcm = std::make_unique<core::Pcm>(net, *box.vsg, vsr->endpoint(),
                                            std::move(adapter));
      box.pcm->set_sync_mode(mode);
      islands.push_back(std::move(box));
    }
  }

  // One synchronization round: every PCM refreshes concurrently (what
  // MetaMiddleware::refresh_all does per round), drained to completion.
  Status refresh_round() {
    std::size_t remaining = islands.size();
    Status first_error;
    for (auto& box : islands) {
      box.pcm->refresh([&](const Status& s) {
        if (!s.is_ok() && first_error.is_ok()) first_error = s;
        --remaining;
      });
    }
    sim::run_until_done(sched, [&] { return remaining == 0; });
    return first_error;
  }
};

constexpr int kMeasuredRounds = 6;

struct RunResult {
  double latency_ms = 0;     // mean virtual-time latency per round
  double bytes_per_round = 0;  // mean backbone bytes per round
  double allocs_per_round = 0;      // mean heap allocations per round
  double heap_bytes_per_round = 0;  // mean heap bytes requested per round
  std::uint64_t bodies_sent = 0;
  std::uint64_t bodies_elided = 0;
  std::uint64_t delta_syncs = 0;
  std::uint64_t full_syncs = 0;
};

RunResult run_config(std::size_t n_islands, std::size_t services,
                     std::size_t churn, core::Pcm::SyncMode mode) {
  Mesh mesh(n_islands, services, mode);
  // Converge: two rounds make every island see every other island's
  // initial publications (same convention as MetaMiddleware).
  (void)mesh.refresh_round();
  (void)mesh.refresh_round();

  std::vector<double> latency;
  std::vector<double> bytes;
  std::uint64_t allocs = 0;
  std::uint64_t heap_bytes = 0;
  std::size_t next_svc = services;  // churned-in names keep counting up
  for (int round = 0; round < kMeasuredRounds; ++round) {
    // Churn on island 0: retire the oldest `churn` services, add as
    // many new ones (arrivals + departures, the paper's dynamism).
    auto& adapter = *mesh.islands[0].adapter;
    for (std::size_t c = 0; c < churn; ++c) {
      adapter.remove_service("island-0-svc-" +
                             std::to_string(next_svc - services + c));
      adapter.add_service("island-0-svc-" + std::to_string(next_svc + c));
    }
    next_svc += churn;

    const auto bytes0 = mesh.backbone->bytes_carried();
    const auto t0 = mesh.sched.now();
    bench::AllocDelta heap;
    (void)mesh.refresh_round();
    allocs += heap.allocs();
    heap_bytes += heap.bytes();
    latency.push_back(bench::to_ms(mesh.sched.now() - t0));
    bytes.push_back(
        static_cast<double>(mesh.backbone->bytes_carried() - bytes0));
  }

  RunResult out;
  out.latency_ms = bench::stats_of(latency).mean;
  out.bytes_per_round = bench::stats_of(bytes).mean;
  out.allocs_per_round = static_cast<double>(allocs) / kMeasuredRounds;
  out.heap_bytes_per_round = static_cast<double>(heap_bytes) / kMeasuredRounds;
  out.bodies_sent = mesh.vsr->registry().wsdl_bodies_sent();
  out.bodies_elided = mesh.vsr->registry().wsdl_bodies_elided();
  out.delta_syncs = mesh.vsr->registry().delta_syncs();
  out.full_syncs = mesh.vsr->registry().full_syncs();
  return out;
}

const char* mode_name(core::Pcm::SyncMode m) {
  return m == core::Pcm::SyncMode::kDelta ? "delta" : "snapshot";
}

void sweep_report(const std::string& json_path) {
  bench::print_header(
      "VSR synchronization: snapshot vs delta refresh (islands x services x "
      "churn)");
  std::printf(
      "  steady-state rounds measured after convergence; churn = services\n"
      "  replaced on island-0 before each round\n\n");
  std::printf(
      "  mode      isl  svc/isl  churn   latency/round   backbone B/round"
      "   allocs/round   heap B/round\n");

  bench::JsonReport report("bench_ext_vsr_sync");
  report.stamp_provenance();
  const std::size_t island_counts[] = {2, 4};
  const std::size_t service_counts[] = {5, 20, 50};
  const std::size_t churn_counts[] = {0, 2};
  for (std::size_t islands : island_counts) {
    for (std::size_t services : service_counts) {
      for (std::size_t churn : churn_counts) {
        for (auto mode : {core::Pcm::SyncMode::kSnapshot,
                          core::Pcm::SyncMode::kDelta}) {
          RunResult r = run_config(islands, services, churn, mode);
          std::printf(
              "  %-8s  %3zu  %7zu  %5zu  %11.2f ms  %14.0f  %13.0f  %13.0f\n",
              mode_name(mode), islands, services, churn, r.latency_ms,
              r.bytes_per_round, r.allocs_per_round, r.heap_bytes_per_round);
          report.row()
              .str("mode", mode_name(mode))
              .num("islands", islands)
              .num("services_per_island", services)
              .num("churn", churn)
              .num("latency_ms", r.latency_ms)
              .num("backbone_bytes_per_round", r.bytes_per_round)
              .num("allocs_per_round", r.allocs_per_round)
              .num("heap_bytes_per_round", r.heap_bytes_per_round)
              .num("wsdl_bodies_sent", r.bodies_sent)
              .num("wsdl_bodies_elided", r.bodies_elided)
              .num("registry_delta_syncs", r.delta_syncs)
              .num("registry_full_syncs", r.full_syncs);
        }
      }
    }
  }

  // Headline numbers for the acceptance shape: zero-churn steady state
  // at growing S, snapshot vs delta.
  std::printf("\n  zero-churn scaling (4 islands):\n");
  std::printf("      S   snapshot ms    delta ms   speedup   snap B    delta B\n");
  for (std::size_t services : service_counts) {
    RunResult snap =
        run_config(4, services, 0, core::Pcm::SyncMode::kSnapshot);
    RunResult delta = run_config(4, services, 0, core::Pcm::SyncMode::kDelta);
    std::printf("    %3zu  %10.2f  %10.2f  %7.1fx  %8.0f  %8.0f\n", services,
                snap.latency_ms, delta.latency_ms,
                snap.latency_ms / delta.latency_ms, snap.bytes_per_round,
                delta.bytes_per_round);
    report.row()
        .str("mode", "headline")
        .num("islands", std::size_t{4})
        .num("services_per_island", services)
        .num("churn", std::size_t{0})
        .num("snapshot_latency_ms", snap.latency_ms)
        .num("delta_latency_ms", delta.latency_ms)
        .num("speedup", snap.latency_ms / delta.latency_ms)
        .num("snapshot_bytes_per_round", snap.bytes_per_round)
        .num("delta_bytes_per_round", delta.bytes_per_round);
  }
  std::printf(
      "\n  -> delta keeps steady-state refresh O(1) per island: bytes and\n"
      "     latency flat in S, while snapshot grows linearly with S.\n");

  if (!json_path.empty() && report.write(json_path)) {
    std::printf("  (json written to %s)\n", json_path.c_str());
  }
}

// CPU side: the digest each publish/cache-hit costs.
void BM_WsdlDigest(benchmark::State& state) {
  core::LocalService s;
  s.name = "svc";
  s.interface = device_interface();
  const std::string wsdl = soap::emit_wsdl(
      s.interface, s.name, Uri{"http", "host", 8080, "/vsg/svc"});
  for (auto _ : state) {
    auto d = soap::wsdl_digest(wsdl);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wsdl.size()));
}
BENCHMARK(BM_WsdlDigest);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_arg(argc, argv);
  // Strip --json <path> before handing argv to the benchmark library.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;  // skip the value too
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());

  sweep_report(json_path);
  benchmark::Initialize(&filtered_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
