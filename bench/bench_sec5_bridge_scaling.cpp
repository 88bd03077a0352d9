// §5 (Related Work) — "it is not enough to develop a single bridge that
// connects two specific middleware one to one." This bench regenerates
// that argument as numbers: connecting N middleware with dedicated 1:1
// bridges (the Philips/Sony/Sun HAVi-Jini approach) needs O(N^2) bridge
// implementations, while the framework needs one PCM per middleware,
// O(N). Both approaches are actually built and timed here.
//
// Expected shape: bridge artifacts grow quadratically vs linearly;
// the framework's per-island work (and the VSR's size) grows linearly.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/adapters/jini_adapter.hpp"
#include "core/meta.hpp"
#include "jini/lookup.hpp"
#include "jini/registrar.hpp"

using namespace hcm;

namespace {

constexpr int kServicesPerIsland = 3;

// One self-contained middleware island (Jini-flavoured: the stack is
// irrelevant to the scaling argument, the count is what matters).
struct Island {
  net::Node* gw = nullptr;
  net::Node* lookup_host = nullptr;
  net::Node* appliance = nullptr;
  std::unique_ptr<jini::LookupService> lookup;
  std::unique_ptr<net::BinaryRpcServer> jini_server;
  std::vector<std::unique_ptr<jini::Registrar>> registrars;
  core::JiniAdapter* adapter = nullptr;  // owned by meta (framework mode)
  std::unique_ptr<core::JiniAdapter> own_adapter;  // pairwise mode
};

std::vector<Island> build_islands(net::Network& net,
                                  net::EthernetSegment& backbone, int n) {
  std::vector<Island> islands(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& island = islands[static_cast<std::size_t>(i)];
    auto tag = std::to_string(i);
    auto& lan = net.add_ethernet("lan-" + tag, sim::microseconds(200),
                                 100'000'000);
    island.gw = &net.add_node("gw-" + tag);
    island.lookup_host = &net.add_node("lookup-" + tag);
    island.appliance = &net.add_node("dev-" + tag);
    net.attach(*island.gw, lan);
    net.attach(*island.gw, backbone);
    net.attach(*island.lookup_host, lan);
    net.attach(*island.appliance, lan);
    island.lookup = std::make_unique<jini::LookupService>(
        net, island.lookup_host->id());
    (void)island.lookup->start();
    island.jini_server =
        std::make_unique<net::BinaryRpcServer>(net, island.appliance->id(),
                                               4170, "jini");
    (void)island.jini_server->start();
    for (int s = 0; s < kServicesPerIsland; ++s) {
      std::string name = "svc-" + tag + "-" + std::to_string(s);
      island.jini_server->register_service(
          name, [](const std::string&, const ValueList&,
                   InvokeResultFn done) { done(Value(true)); });
      jini::ServiceItem item;
      item.service_id = name;
      item.name = name;
      item.interface = InterfaceDesc{
          "Widget", {MethodDesc{"poke", {}, ValueType::kBool, false}}};
      item.endpoint = island.jini_server->endpoint();
      island.registrars.push_back(std::make_unique<jini::Registrar>(
          net, island.appliance->id(), island.lookup->endpoint(),
          std::move(item)));
      island.registrars.back()->join([](const Status&) {});
    }
  }
  return islands;
}

void sec5_report() {
  bench::print_header(
      "Sec. 5  1:1 bridges vs meta-middleware: scaling with island count N");
  std::printf(
      "  N   bridges(1:1)  PCMs(framework)  bridge setup  framework setup\n");

  for (int n = 2; n <= 6; ++n) {
    // --- framework mode: one PCM per island around a shared VSR. -----
    double framework_ms = 0;
    {
      sim::Scheduler sched;
      net::Network net(sched);
      auto& backbone =
          net.add_ethernet("backbone", sim::milliseconds(5), 10'000'000);
      auto& vsr_host = net.add_node("vsr-host");
      net.attach(vsr_host, backbone);
      core::VsrServer vsr(net, vsr_host.id());
      (void)vsr.start();
      auto islands = build_islands(net, backbone, n);
      sched.run_for(sim::seconds(1));

      core::MetaMiddleware meta(net, vsr.endpoint());
      sim::SimTime t0 = sched.now();
      for (int i = 0; i < n; ++i) {
        auto adapter = std::make_unique<core::JiniAdapter>(
            net, islands[static_cast<std::size_t>(i)].gw->id(),
            islands[static_cast<std::size_t>(i)].lookup->endpoint());
        (void)adapter->start();
        (void)meta.add_island("island-" + std::to_string(i),
                              islands[static_cast<std::size_t>(i)].gw->id(),
                              std::move(adapter));
      }
      std::optional<Status> done;
      meta.refresh_all([&](const Status& s) { done = s; });
      sim::run_until_done(sched, [&] { return done.has_value(); });
      framework_ms = bench::to_ms(sched.now() - t0);
    }

    // --- pairwise mode: a dedicated bridge per ordered pair. Each
    // bridge discovers the source island's services and exports each
    // into the destination island — by hand, no VSR, no reuse. --------
    double pairwise_ms = 0;
    int bridges = 0;
    {
      sim::Scheduler sched;
      net::Network net(sched);
      auto& backbone =
          net.add_ethernet("backbone", sim::milliseconds(5), 10'000'000);
      auto islands = build_islands(net, backbone, n);
      sched.run_for(sim::seconds(1));
      // Each island still needs an adapter object for its native
      // protocol — but in pairwise mode every *pair* is an extra
      // artifact with its own discovery + export pass.
      for (auto& island : islands) {
        island.own_adapter = std::make_unique<core::JiniAdapter>(
            net, island.gw->id(), island.lookup->endpoint());
        (void)island.own_adapter->start();
      }
      sim::SimTime t0 = sched.now();
      int pending = 0;
      for (int src = 0; src < n; ++src) {
        for (int dst = 0; dst < n; ++dst) {
          if (src == dst) continue;
          ++bridges;
          ++pending;
          auto* src_adapter =
              islands[static_cast<std::size_t>(src)].own_adapter.get();
          auto* dst_adapter =
              islands[static_cast<std::size_t>(dst)].own_adapter.get();
          src_adapter->list_services(
              [src_adapter, dst_adapter,
               &pending](Result<std::vector<core::LocalService>> services) {
                if (services.is_ok()) {
                  for (auto& service : services.value()) {
                    core::LocalService bridged = service;
                    bridged.name = service.name;  // same deployed name
                    (void)dst_adapter->export_service(
                        bridged,
                        [src_adapter, name = service.name](
                            const std::string& method, const ValueList& args,
                            InvokeResultFn done) {
                          src_adapter->invoke(name, method, args,
                                              std::move(done));
                        });
                  }
                }
                --pending;
              });
        }
      }
      sim::run_until_done(sched, [&] { return pending == 0; });
      pairwise_ms = bench::to_ms(sched.now() - t0);
    }

    std::printf("  %d   %9d      %9d      %8.1f ms   %10.1f ms\n", n,
                bridges, n, pairwise_ms, framework_ms);
  }
  std::printf(
      "\n  bridge implementations grow O(N^2); PCMs grow O(N). Adding a\n"
      "  7th middleware costs 12 new bridges in the 1:1 world and exactly\n"
      "  one adapter in the framework (the paper's core argument).\n");
}

// The CPU cost of the per-island sync pass the framework repeats.
void BM_SingleIslandRefresh(benchmark::State& state) {
  sim::Scheduler sched;
  net::Network net(sched);
  auto& backbone =
      net.add_ethernet("backbone", sim::milliseconds(5), 10'000'000);
  auto& vsr_host = net.add_node("vsr-host");
  net.attach(vsr_host, backbone);
  core::VsrServer vsr(net, vsr_host.id());
  (void)vsr.start();
  auto islands = build_islands(net, backbone, 1);
  sched.run_for(sim::seconds(1));
  core::MetaMiddleware meta(net, vsr.endpoint());
  auto adapter = std::make_unique<core::JiniAdapter>(
      net, islands[0].gw->id(), islands[0].lookup->endpoint());
  (void)adapter->start();
  auto island = meta.add_island("island-0", islands[0].gw->id(),
                                std::move(adapter));
  for (auto _ : state) {
    std::optional<Status> done;
    island.value()->pcm->refresh([&](const Status& s) { done = s; });
    sim::run_until_done(sched, [&] { return done.has_value(); });
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_SingleIslandRefresh)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  sec5_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
