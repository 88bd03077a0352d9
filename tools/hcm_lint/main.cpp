// hcm_lint driver. Two passes, any diagnostic fails (exit 1):
//   1. descriptor pass — every statically declared InterfaceDesc plus
//      every service a live SmartHome's adapters enumerate is checked
//      structurally and through the WSDL round-trip;
//   2. VSR pass — after a full meta refresh, every registry entry must
//      parse, resolve and match a live exposure on its origin island,
//      and every wire op the live registry mounts must have a
//      round-trip fixture that survives both value codecs.
// The [[nodiscard]] discipline on Status/Result APIs is a pass of
// hcm_analyze, which owns the C++ source lexer.
#include <cstdio>
#include <string>
#include <vector>

#include "core/adapters/x10_adapter.hpp"
#include "havi/fcm_av.hpp"
#include "hcm_lint/lint.hpp"
#include "testbed/home.hpp"

using namespace hcm;

namespace {

struct NamedInterface {
  std::string provenance;
  InterfaceDesc iface;
};

std::vector<NamedInterface> static_interfaces() {
  return {
      {"testbed::LaserdiscPlayer", testbed::LaserdiscPlayer::describe_interface()},
      {"havi::VcrFcm", havi::VcrFcm::describe_interface()},
      {"havi::DvCameraFcm", havi::DvCameraFcm::describe_interface()},
      {"havi::DisplayFcm", havi::DisplayFcm::describe_interface()},
      {"havi::TunerFcm", havi::TunerFcm::describe_interface()},
      {"core::X10Adapter(dimmable)", core::X10Adapter::switchable_interface(true)},
      {"core::X10Adapter(appliance)", core::X10Adapter::switchable_interface(false)},
  };
}

void append(lint::Diagnostics& all, lint::Diagnostics more) {
  all.insert(all.end(), more.begin(), more.end());
}

}  // namespace

int main() {
  lint::Diagnostics all;

  // --- pass 1a: statically declared descriptors ------------------------
  std::size_t interfaces_checked = 0;
  for (const auto& [provenance, iface] : static_interfaces()) {
    append(all, lint::check_interface(iface, provenance));
    append(all, lint::check_wsdl_roundtrip(iface, provenance));
    ++interfaces_checked;
  }

  // --- pass 1b + 2: the live testbed ----------------------------------
  sim::Scheduler sched;
  testbed::SmartHome home(sched);
  Status refreshed = home.refresh();
  if (!refreshed.is_ok()) {
    all.push_back({"testbed-refresh", "SmartHome",
                   "meta refresh failed: " + refreshed.to_string()});
  }

  // Every service each island's adapter can enumerate (this reaches the
  // descriptors the Jini/HAVi/X10/mail registrations carry at runtime).
  for (const char* island :
       {"jini-island", "havi-island", "x10-island", "mail-island"}) {
    auto* isl = home.meta->island(island);
    if (isl == nullptr) {
      all.push_back({"testbed-island", island, "island missing from meta"});
      continue;
    }
    bool listed = false;
    isl->pcm->adapter().list_services(
        [&](Result<std::vector<core::LocalService>> services) {
          listed = true;
          if (!services.is_ok()) {
            all.push_back({"adapter-list", island,
                           "list_services failed: " +
                               services.status().to_string()});
            return;
          }
          for (const auto& service : services.value()) {
            const std::string provenance =
                std::string(island) + "/" + service.name;
            append(all, lint::check_interface(service.interface, provenance));
            append(all,
                   lint::check_wsdl_roundtrip(service.interface, provenance));
            ++interfaces_checked;
          }
        });
    sim::run_until_done(sched, [&] { return listed; });
    if (!listed) {
      all.push_back({"adapter-list", island, "list_services never completed"});
    }
  }

  // VSR pass: fetch every entry over the real UDDI protocol.
  std::vector<soap::RegistryEntry> entries;
  bool fetched = false;
  soap::UddiClient uddi(home.net, home.vsr_node->id(), home.vsr->endpoint());
  uddi.list_all([&](Result<std::vector<soap::RegistryEntry>> r) {
    fetched = true;
    if (!r.is_ok()) {
      all.push_back({"vsr-list", "uddi",
                     "list_all failed: " + r.status().to_string()});
      return;
    }
    entries = std::move(r).take();
  });
  sim::run_until_done(sched, [&] { return fetched; });

  lint::VsrCheckContext ctx;
  ctx.net = &home.net;
  ctx.vsg_for_origin = [&](const std::string& origin) {
    auto* isl = home.meta->island(origin);
    return isl != nullptr ? isl->vsg.get() : nullptr;
  };
  append(all, lint::check_vsr_entries(entries, ctx));

  // Registry wire contract: the ops the live registry actually mounts,
  // checked against the canonical fixture set.
  const auto wire_ops = home.vsr->registry().wire_ops();
  append(all,
         lint::check_registry_wire(wire_ops, lint::registry_wire_fixtures()));

  // Store record contract: the on-disk log format is a compatibility
  // surface like the wire — every record type the durable store can
  // write must have a codec round-trip fixture.
  append(all, lint::check_store_records(store::all_record_types(),
                                        lint::store_record_fixtures()));

  // --- pass 2b: observability contract ---------------------------------
  // Drive one real invocation through the meta layer so the sampled
  // check can distinguish "registered but never observed" from "no
  // traffic yet", then require every mounted op on every island's
  // gateway to carry per-op latency metrics.
  bool invoked = false;
  home.havi_adapter->invoke("laserdisc-1", "getStatus", {},
                            [&](Result<Value> r) {
                              invoked = true;
                              if (!r.is_ok()) {
                                all.push_back(
                                    {"obs-probe", "laserdisc-1.getStatus",
                                     "probe invocation failed: " +
                                         r.status().to_string()});
                              }
                            });
  sim::run_until_done(sched, [&] { return invoked; });
  std::size_t ops_checked = 0;
  for (const char* island :
       {"jini-island", "havi-island", "x10-island", "mail-island"}) {
    auto* isl = home.meta->island(island);
    if (isl == nullptr) continue;
    ops_checked += isl->vsg->exposed_ops().size();
    append(all,
           lint::check_vsg_op_metrics(*isl->vsg, obs::Registry::global()));
  }

  if (!all.empty()) {
    std::fprintf(stderr, "hcm_lint: %zu violation(s)\n%s", all.size(),
                 lint::format_diagnostics(all).c_str());
    return 1;
  }
  std::printf(
      "hcm_lint: OK — %zu interfaces, %zu VSR entries, %zu wire ops, "
      "%zu instrumented vsg ops, 0 violations\n",
      interfaces_checked, entries.size(), wire_ops.size(), ops_checked);
  return 0;
}
