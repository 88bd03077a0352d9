// X10 PCM adapter. X10 is the most asymmetric middleware in the paper's
// prototype: devices cannot describe themselves (no discovery — the
// adapter is configured with a device table), and the powerline is a
// one-way command medium. Conversions:
//   CP direction: each configured module becomes an "X10Switchable"
//     service (turnOn/turnOff/dim/bright) driven through the CM11A.
//   SP direction: a foreign service is bound to a virtual unit code on
//     the export house; ON/OFF commands observed on the powerline for
//     that unit (from remotes, sensors, other controllers) invoke the
//     service's mapped methods. This is exactly how the paper's
//     Universal Remote Controller drives Jini and HAVi devices.
#pragma once

#include <map>
#include <vector>

#include "core/adapter.hpp"
#include "obs/instrument.hpp"
#include "x10/cm11a.hpp"

namespace hcm::core {

struct X10DeviceConfig {
  std::string name;        // deployed service name ("desk-lamp")
  x10::HouseCode house = x10::HouseCode::kA;
  int unit = 1;
  bool dimmable = false;   // lamp module vs appliance module
};

class X10Adapter : public MiddlewareAdapter {
 public:
  X10Adapter(net::Network& net, x10::Cm11aController& cm11a,
             std::vector<X10DeviceConfig> devices,
             x10::HouseCode export_house = x10::HouseCode::kP);
  ~X10Adapter() override;

  [[nodiscard]] std::string middleware_name() const override { return "x10"; }
  void list_services(ServicesFn done) override;
  void invoke(const std::string& service_name, const std::string& method,
              const ValueList& args, InvokeResultFn done) override;
  [[nodiscard]] Status export_service(const LocalService& service,
                                      ServiceHandler handler) override;
  void unexport_service(const std::string& name) override;

  // Event bridge: a module's stateChanged fires when an *external*
  // transmitter (remote, sensor, another controller) switches it on the
  // powerline; emit_event re-transmits stateChanged of an exported
  // foreign service as ON/OFF on its virtual unit.
  [[nodiscard]] Status watch_events(const LocalService& service,
                                    AdapterEventFn on_event) override;
  void unwatch_events(const std::string& service_name) override;
  void emit_event(const std::string& service_name, const std::string& event,
                  const Value& payload) override;

  // The virtual unit a foreign service was bound to (for remotes/UIs).
  [[nodiscard]] Result<int> unit_for(const std::string& service_name) const;

  // The native interface X10 modules are exposed under.
  static InterfaceDesc switchable_interface(bool dimmable);

 private:
  struct Binding {
    int unit = 0;
    std::string on_method;
    std::string off_method;
    ServiceHandler handler;
  };
  void on_observed(const x10::ObservedCommand& cmd);
  static std::string pick_method(const LocalService& service,
                                 const char* hint_attr, bool for_on);

  net::Network& net_;
  x10::Cm11aController& cm11a_;
  obs::InvokeMetrics invoke_metrics_{"x10"};
  std::map<std::string, X10DeviceConfig> devices_;
  x10::HouseCode export_house_;
  std::map<std::string, Binding> bindings_;   // by service name
  std::map<int, std::string> unit_to_name_;
  std::map<std::string, AdapterEventFn> watched_;  // by module name
  int next_unit_ = 1;
};

}  // namespace hcm::core
