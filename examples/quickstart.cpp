// Quickstart: the smallest complete use of the framework.
//
// Two middleware islands — a Jini network with one service and an X10
// powerline with one lamp and a hand-held remote — are connected
// through the meta-middleware (VSR + one VSG/PCM per island). After one
// refresh() the Jini client switches the X10 lamp on as if it were a
// Jini service, and a raw X10 remote keypress drives the Jini service.
// No service or client was changed.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
//
// Pass --store-dir <path> to make the VSR durable: registry changes are
// journaled to a crash-recoverable store (docs/PERSISTENCE.md) and a
// rerun over the same directory resumes the previous registry epoch.
#include <cstdio>
#include <cstring>

#include "core/adapters/jini_adapter.hpp"
#include "core/adapters/x10_adapter.hpp"
#include "core/meta.hpp"
#include "jini/lookup.hpp"
#include "jini/registrar.hpp"
#include "x10/cm11a.hpp"
#include "x10/device.hpp"

using namespace hcm;

int main(int argc, char** argv) {
  std::string store_dir;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--store-dir") == 0) store_dir = argv[i + 1];
  }

  // 1. A simulated home: scheduler, backbone, one LAN, one powerline.
  sim::Scheduler sched;
  net::Network net(sched);
  auto& backbone = net.add_ethernet("backbone", sim::milliseconds(5),
                                    10'000'000);
  auto& lan = net.add_ethernet("jini-lan", sim::microseconds(200),
                               100'000'000);
  auto& powerline = net.add_powerline("powerline");

  // 2. The Virtual Service Repository (WSDL/UDDI over SOAP).
  auto& vsr_host = net.add_node("vsr-host");
  net.attach(vsr_host, backbone);
  core::VsrServer vsr(net, vsr_host.id(), 8000,
                      soap::UddiRegistry::kDefaultJournalCapacity, store_dir);
  (void)vsr.start();
  if (!store_dir.empty()) {
    std::printf("vsr store: %s (%s, epoch %llu)\n", store_dir.c_str(),
                vsr.registry().store_recovered_entries() > 0 ? "resumed"
                                                             : "fresh",
                static_cast<unsigned long long>(vsr.registry().epoch()));
  }

  // 3. The Jini island: lookup service + one "greeter" service.
  auto& jini_gw = net.add_node("jini-gw");
  auto& lookup_host = net.add_node("lookup-host");
  auto& appliance = net.add_node("appliance");
  net.attach(jini_gw, lan);
  net.attach(jini_gw, backbone);
  net.attach(lookup_host, lan);
  net.attach(appliance, lan);

  jini::LookupService lookup(net, lookup_host.id());
  (void)lookup.start();

  net::BinaryRpcServer jini_server(net, appliance.id(), 4170, "jini");
  (void)jini_server.start();
  bool sign_on = false;
  jini_server.register_service(
      "sign-1", [&sign_on](const std::string& method, const ValueList&,
                           InvokeResultFn done) {
        if (method == "turnOn" || method == "turnOff") {
          sign_on = method == "turnOn";
          done(Value(true));
        } else {
          done(not_found("no method " + method));
        }
      });
  jini::ServiceItem item;
  item.service_id = "sign-1";
  item.name = "sign-1";
  item.interface = InterfaceDesc{
      "Signboard",
      {MethodDesc{"turnOn", {}, ValueType::kBool, false},
       MethodDesc{"turnOff", {}, ValueType::kBool, false}}};
  item.endpoint = jini_server.endpoint();
  jini::Registrar registrar(net, appliance.id(), lookup.endpoint(), item);
  registrar.join([](const Status&) {});

  // 4. The X10 island: CM11A controller + a lamp at address A1.
  auto& x10_gw = net.add_node("x10-gw");
  auto& lamp_node = net.add_node("lamp");
  auto& remote_node = net.add_node("remote");
  net.attach(x10_gw, powerline);
  net.attach(x10_gw, backbone);
  net.attach(lamp_node, powerline);
  net.attach(remote_node, powerline);
  x10::Cm11aController cm11a(net, x10_gw.id(), powerline);
  x10::LampModule lamp(net, lamp_node.id(), powerline, x10::HouseCode::kA, 1);
  x10::RemoteControl remote(net, remote_node.id(), powerline,
                            x10::HouseCode::kP);

  // 5. Connect both islands through the meta-middleware.
  core::MetaMiddleware meta(net, vsr.endpoint());
  core::JiniAdapter* jini_adapter = nullptr;
  core::X10Adapter* x10_adapter = nullptr;
  {
    auto adapter = std::make_unique<core::JiniAdapter>(net, jini_gw.id(),
                                                       lookup.endpoint());
    (void)adapter->start();
    jini_adapter = adapter.get();
    (void)meta.add_island("jini-island", jini_gw.id(), std::move(adapter));
  }
  {
    std::vector<core::X10DeviceConfig> devices{
        {"lamp-1", x10::HouseCode::kA, 1, /*dimmable=*/true}};
    auto adapter = std::make_unique<core::X10Adapter>(net, cm11a,
                                                      std::move(devices));
    x10_adapter = adapter.get();
    (void)meta.add_island("x10-island", x10_gw.id(), std::move(adapter));
  }

  std::optional<Status> refreshed;
  meta.refresh_all([&](const Status& s) { refreshed = s; });
  sim::run_until_done(sched, [&] { return refreshed.has_value(); });
  std::printf("refresh: %s\n", refreshed->to_string().c_str());

  // 6. A Jini client switches the powerline lamp on — transparently.
  std::optional<Result<Value>> lamp_result;
  jini_adapter->invoke("lamp-1", "turnOn", {},
                       [&](Result<Value> r) { lamp_result = std::move(r); });
  sim::run_until_done(sched, [&] { return lamp_result.has_value(); });
  std::printf("jini -> x10 turnOn: %s, lamp level now %d%%\n",
              lamp_result->is_ok() ? "OK"
                                   : lamp_result->status().to_string().c_str(),
              lamp.level());

  // 7. ...and a raw X10 keypress reaches the Jini signboard: the PCM
  // bound the imported service to a virtual unit on house P.
  auto sign_unit = x10_adapter->unit_for("sign-1");
  if (!sign_unit.is_ok()) {
    std::printf("no X10 binding for sign-1: %s\n",
                sign_unit.status().to_string().c_str());
    return 1;
  }
  remote.press(sign_unit.value(), x10::FunctionCode::kOn);
  sched.run_for(sim::seconds(30));
  std::printf("x10 remote P%d ON -> jini signboard is %s\n",
              sign_unit.value(), sign_on ? "on" : "off");

  return lamp_result->is_ok() && sign_on ? 0 : 1;
}
