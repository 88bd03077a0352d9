// VSR synchronization bench: delta refresh across a mesh of islands
// sharing one backbone registry. Sweeps islands x services x churn and
// reports per-refresh-round latency and backbone traffic.
//
// Expected shape: with zero churn the steady-state cost is flat in S
// (one renewOrigin + one empty changesSince per island per round), so
// the bench exits 1 unless, at each island count, every zero-churn row
// stays within 1% of the row at the smallest S in latency and backbone
// bytes. Under churn the cost is O(changed entries) — WSDL bodies move
// only for descriptions a client has never seen.
//
// Host-side cost rides along: allocs_per_round and heap_bytes_per_round
// count the heap traffic of the measured refresh rounds (bench_util's
// HCM_BENCH_ALLOC_HOOK counting hook), excluding the churn edits.
//
// The native arm swaps the synthetic adapters for real Jini islands: a
// lookup service, S native services joined to it, and a JiniAdapter
// under a PCM. Its zero-churn rounds count the native side:
// lookups the LUSes served and frames on the island LANs. The adapter
// answers list_services from its change feed, so both stay at zero
// whatever S, where a re-list per round grows with islands x services.
#define HCM_BENCH_ALLOC_HOOK 1
#include "bench_util.hpp"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/adapters/jini_adapter.hpp"
#include "core/pcm.hpp"
#include "core/vsg.hpp"
#include "core/vsr.hpp"
#include "jini/registrar.hpp"

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

  Mesh(std::size_t n_islands, std::size_t services_per_island) {
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
                     std::size_t churn) {
  Mesh mesh(n_islands, services);
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

// Real Jini islands on one backbone registry.
struct JiniMesh {
  struct Island {
    net::EthernetSegment* lan = nullptr;
    std::unique_ptr<jini::LookupService> lus;
    std::vector<std::unique_ptr<jini::Registrar>> natives;
    std::unique_ptr<core::VirtualServiceGateway> vsg;
    std::unique_ptr<core::Pcm> pcm;  // owns the JiniAdapter
  };

  sim::Scheduler sched;
  net::Network net{sched};
  std::unique_ptr<core::VsrServer> vsr;
  std::vector<std::unique_ptr<Island>> islands;

  JiniMesh(std::size_t n_islands, std::size_t services) {
    auto& backbone =
        net.add_ethernet("backbone", sim::milliseconds(5), 10'000'000);
    auto& vsr_node = net.add_node("vsr-host");
    net.attach(vsr_node, backbone);
    vsr = std::make_unique<core::VsrServer>(net, vsr_node.id());
    (void)vsr->start();
    for (std::size_t i = 0; i < n_islands; ++i) {
      const std::string name = "island-" + std::to_string(i);
      auto island = std::make_unique<Island>();
      island->lan = &net.add_ethernet(name + "-lan", sim::microseconds(200),
                                      100'000'000);
      auto& gw = net.add_node(name + "-gw");
      auto& lus_node = net.add_node(name + "-lus");
      auto& host = net.add_node(name + "-host");
      net.attach(gw, backbone);
      net.attach(gw, *island->lan);
      net.attach(lus_node, *island->lan);
      net.attach(host, *island->lan);
      island->lus = std::make_unique<jini::LookupService>(net, lus_node.id());
      (void)island->lus->start();
      for (std::size_t k = 0; k < services; ++k) {
        jini::ServiceItem item;
        item.service_id = name + "-svc-" + std::to_string(k);
        item.name = item.service_id;
        item.interface = device_interface();
        item.endpoint = {host.id(), 4170};
        island->natives.push_back(std::make_unique<jini::Registrar>(
            net, host.id(), island->lus->endpoint(), std::move(item)));
        island->natives.back()->join([](const Status&) {});
      }
      island->vsg =
          std::make_unique<core::VirtualServiceGateway>(net, gw.id(), name);
      (void)island->vsg->start();
      auto adapter = std::make_unique<core::JiniAdapter>(
          net, gw.id(), island->lus->endpoint());
      (void)adapter->start();
      island->pcm = std::make_unique<core::Pcm>(net, *island->vsg,
                                                vsr->endpoint(),
                                                std::move(adapter));
      islands.push_back(std::move(island));
    }
    sched.run_for(sim::milliseconds(100));  // the native joins land
  }

  Status refresh_round() {
    std::size_t remaining = islands.size();
    Status first_error;
    for (auto& island : islands) {
      island->pcm->refresh([&](const Status& s) {
        if (!s.is_ok() && first_error.is_ok()) first_error = s;
        --remaining;
      });
    }
    sim::run_until_done(sched, [&] { return remaining == 0; });
    return first_error;
  }

  [[nodiscard]] std::uint64_t lookups_served() const {
    std::uint64_t n = 0;
    for (const auto& island : islands) n += island->lus->lookups_served();
    return n;
  }
  [[nodiscard]] std::uint64_t lan_frames() const {
    std::uint64_t n = 0;
    for (const auto& island : islands) n += island->lan->frames_carried();
    return n;
  }
};

struct NativeResult {
  double lookups_per_round = 0;
  double lan_frames_per_round = 0;
  double allocs_per_round = 0;
  double latency_ms = 0;
  std::size_t lus_items = 0;  // per LUS: natives + imported server proxies
};

NativeResult run_native(std::size_t n_islands, std::size_t services) {
  JiniMesh mesh(n_islands, services);
  (void)mesh.refresh_round();
  (void)mesh.refresh_round();
  mesh.sched.run_for(sim::milliseconds(100));  // server proxy joins land
  const auto lookups0 = mesh.lookups_served();
  const auto frames0 = mesh.lan_frames();
  const auto t0 = mesh.sched.now();
  std::uint64_t allocs = 0;
  for (int round = 0; round < kMeasuredRounds; ++round) {
    bench::AllocDelta heap;
    (void)mesh.refresh_round();
    allocs += heap.allocs();
  }
  NativeResult out;
  out.lookups_per_round =
      static_cast<double>(mesh.lookups_served() - lookups0) / kMeasuredRounds;
  out.lan_frames_per_round =
      static_cast<double>(mesh.lan_frames() - frames0) / kMeasuredRounds;
  out.allocs_per_round = static_cast<double>(allocs) / kMeasuredRounds;
  out.latency_ms = bench::to_ms(mesh.sched.now() - t0) / kMeasuredRounds;
  out.lus_items = mesh.islands[0]->lus->service_count();
  return out;
}

void native_report(bench::JsonReport& report) {
  std::printf(
      "\n  native arm: real Jini islands (LUS + S native services + "
      "JiniAdapter),\n  zero-churn rounds after convergence\n\n");
  std::printf(
      "   isl  svc/isl  LUS items  lookups/round  LAN frames/round"
      "   allocs/round  latency/round\n");
  for (std::size_t islands : {std::size_t{2}, std::size_t{8}, std::size_t{32}}) {
    for (std::size_t services :
         {std::size_t{5}, std::size_t{20}, std::size_t{50}}) {
      NativeResult r = run_native(islands, services);
      std::printf("  %4zu  %7zu  %9zu  %13.1f  %16.1f  %13.0f  %10.2f ms\n",
                  islands, services, r.lus_items, r.lookups_per_round,
                  r.lan_frames_per_round, r.allocs_per_round, r.latency_ms);
      report.row()
          .str("mode", "native")
          .num("islands", islands)
          .num("services_per_island", services)
          .num("churn", std::size_t{0})
          .num("lus_items", r.lus_items)
          .num("lus_lookups_per_round", r.lookups_per_round)
          .num("lan_frames_per_round", r.lan_frames_per_round)
          .num("allocs_per_round", r.allocs_per_round)
          .num("latency_ms", r.latency_ms);
    }
  }
  std::printf(
      "\n  -> the change feed keeps the native side of a zero-change round\n"
      "     at zero lookups and zero LAN frames, flat in S.\n");
}

// The flat-in-S band: a zero-churn row may differ from the smallest-S
// row at its island count by this fraction of latency and bytes.
constexpr double kFlatTolerance = 0.01;

bool within_flat_band(double value, double base) {
  return std::abs(value - base) <= base * kFlatTolerance;
}

// Returns false when a zero-churn round grows with S: at each island
// count, every zero-churn row must stay within kFlatTolerance of the
// row at the smallest S in latency and backbone bytes.
bool sweep_report(const std::string& json_path) {
  bench::print_header(
      "VSR synchronization: delta refresh (islands x services x churn)");
  std::printf(
      "  steady-state rounds measured after convergence; churn = services\n"
      "  replaced on island-0 before each round\n\n");
  std::printf(
      "  isl  svc/isl  churn   latency/round   backbone B/round"
      "   allocs/round   heap B/round\n");

  bench::JsonReport report("bench_ext_vsr_sync");
  report.stamp_provenance();
  bool ok = true;
  const std::size_t island_counts[] = {2, 4};
  const std::size_t service_counts[] = {5, 20, 50};
  const std::size_t churn_counts[] = {0, 2};
  for (std::size_t islands : island_counts) {
    RunResult flat_base;  // zero churn, smallest S
    for (std::size_t services : service_counts) {
      for (std::size_t churn : churn_counts) {
        RunResult r = run_config(islands, services, churn);
        std::printf(
            "  %3zu  %7zu  %5zu  %11.2f ms  %14.0f  %13.0f  %13.0f\n",
            islands, services, churn, r.latency_ms, r.bytes_per_round,
            r.allocs_per_round, r.heap_bytes_per_round);
        report.row()
            .str("mode", "delta")
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
        if (churn != 0) continue;
        if (services == service_counts[0]) {
          flat_base = r;
        } else if (!within_flat_band(r.latency_ms, flat_base.latency_ms) ||
                   !within_flat_band(r.bytes_per_round,
                                     flat_base.bytes_per_round)) {
          std::fprintf(stderr,
                       "  FAIL: %zu islands, zero churn: S=%zu round takes "
                       "%.3f ms and %.0f B, S=%zu %.3f ms and %.0f B\n",
                       islands, services, r.latency_ms, r.bytes_per_round,
                       service_counts[0], flat_base.latency_ms,
                       flat_base.bytes_per_round);
          ok = false;
        }
      }
    }
  }
  std::printf(
      "\n  -> steady-state refresh is O(1) per island: bytes and latency\n"
      "     flat in S.\n");

  native_report(report);

  if (!json_path.empty() && report.write(json_path)) {
    std::printf("  (json written to %s)\n", json_path.c_str());
  }
  return ok;
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

  const bool ok = sweep_report(json_path);
  benchmark::Initialize(&filtered_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
