#include "core/adapters/x10_adapter.hpp"

#include <span>

#include "common/logging.hpp"

namespace hcm::core {

InterfaceDesc X10Adapter::switchable_interface(bool dimmable) {
  InterfaceDesc iface{
      "X10Switchable",
      {
          MethodDesc{"turnOn", {}, ValueType::kBool, false},
          MethodDesc{"turnOff", {}, ValueType::kBool, false},
          MethodDesc{"getAddress", {}, ValueType::kString, false},
      }};
  if (dimmable) {
    iface.methods.push_back(MethodDesc{
        "dim", {{"steps", ValueType::kInt}}, ValueType::kBool, false});
    iface.methods.push_back(MethodDesc{
        "bright", {{"steps", ValueType::kInt}}, ValueType::kBool, false});
  }
  // Observed powerline state flips (from remotes/sensors/other
  // controllers) surface as a stateChanged event.
  iface.events.push_back(MethodDesc{
      "stateChanged", {{"on", ValueType::kBool}}, ValueType::kNull, true});
  return iface;
}

X10Adapter::X10Adapter(net::Network& net, x10::Cm11aController& cm11a,
                       std::vector<X10DeviceConfig> devices,
                       x10::HouseCode export_house)
    : net_(net), cm11a_(cm11a), export_house_(export_house) {
  for (auto& d : devices) devices_[d.name] = d;
  cm11a_.set_observer(
      [this](const x10::ObservedCommand& cmd) { on_observed(cmd); });
}

X10Adapter::~X10Adapter() { cm11a_.set_observer(nullptr); }

void X10Adapter::list_services(ServicesFn done) {
  // X10 has no discovery protocol: the device table is configuration,
  // so listing is synchronous — but completes via the scheduler to keep
  // the adapter contract uniformly asynchronous.
  std::vector<LocalService> services;
  for (const auto& [name, config] : devices_) {
    LocalService service;
    service.name = name;
    service.interface = switchable_interface(config.dimmable);
    service.attributes["x10.address"] =
        Value(x10::format_address(config.house, config.unit));
    services.push_back(std::move(service));
  }
  net_.scheduler().after(0, [services = std::move(services),
                             done = std::move(done)]() mutable {
    done(std::move(services));
  });
}

void X10Adapter::invoke(const std::string& service_name,
                        const std::string& method, const ValueList& args,
                        InvokeResultFn done) {
  obs::ScopedInvoke obs_invoke(net_.scheduler(), invoke_metrics_,
                               service_name, method);
  done = obs_invoke.wrap(std::move(done));
  // Imported services bound to virtual units dispatch through their
  // server-proxy handler (programmatic equivalent of the powerline
  // command path).
  if (auto binding = bindings_.find(service_name);
      binding != bindings_.end()) {
    binding->second.handler(method, args, std::move(done));
    return;
  }
  auto it = devices_.find(service_name);
  if (it == devices_.end()) {
    net_.scheduler().after(0, [service_name, done = std::move(done)] {
      done(not_found("no X10 module: " + service_name));
    });
    return;
  }
  const X10DeviceConfig& config = it->second;

  if (method == "getAddress") {
    net_.scheduler().after(0, [config, done = std::move(done)] {
      done(Value(x10::format_address(config.house, config.unit)));
    });
    return;
  }

  x10::FunctionCode function;
  int dims = 0;
  if (method == "turnOn") {
    function = x10::FunctionCode::kOn;
  } else if (method == "turnOff") {
    function = x10::FunctionCode::kOff;
  } else if (method == "dim" && config.dimmable) {
    function = x10::FunctionCode::kDim;
    dims = args.empty() ? 1 : static_cast<int>(args[0].to_int().value_or(1));
  } else if (method == "bright" && config.dimmable) {
    function = x10::FunctionCode::kBright;
    dims = args.empty() ? 1 : static_cast<int>(args[0].to_int().value_or(1));
  } else {
    net_.scheduler().after(0, [service_name, method, done = std::move(done)] {
      done(not_found(service_name + " does not support " + method));
    });
    return;
  }
  cm11a_.send_command(config.house, config.unit, function, dims,
                      [done = std::move(done)](const Status& s) {
                        if (s.is_ok()) {
                          done(Value(true));
                        } else {
                          done(s);
                        }
                      });
}

std::string X10Adapter::pick_method(const LocalService& service,
                                    const char* hint_attr,
                                    bool for_on) {
  auto hint = service.attributes.find(hint_attr);
  if (hint != service.attributes.end() && hint->second.is_string()) {
    return hint->second.as_string();
  }
  // Conversion policy: conventional zero-arg method names, in order of
  // preference. ON additionally falls back to the first zero-argument
  // method; OFF never guesses (an unmapped OFF is safer than a wrong
  // invocation).
  static constexpr const char* kOnNames[] = {"turnOn", "powerOn", "play",
                                             "startCapture", "start"};
  static constexpr const char* kOffNames[] = {"turnOff", "powerOff", "stop",
                                              "stopCapture"};
  const std::span<const char* const> candidates =
      for_on ? std::span<const char* const>(kOnNames)
             : std::span<const char* const>(kOffNames);
  for (const char* candidate : candidates) {
    const MethodDesc* m = service.interface.find_method(candidate);
    if (m != nullptr && m->params.empty()) return candidate;
  }
  if (for_on) {
    for (const auto& m : service.interface.methods) {
      if (m.params.empty()) return m.name;
    }
  }
  return "";
}

Status X10Adapter::export_service(const LocalService& service,
                                  ServiceHandler handler) {
  if (bindings_.count(service.name) != 0) {
    return already_exists("already bound to X10: " + service.name);
  }
  if (next_unit_ > 16) {
    return resource_exhausted("house " +
                              std::string(x10::to_string(export_house_)) +
                              " has no free unit codes");
  }
  Binding binding;
  binding.unit = next_unit_++;
  binding.on_method = pick_method(service, "x10.on", /*for_on=*/true);
  binding.off_method = pick_method(service, "x10.off", /*for_on=*/false);
  binding.handler = std::move(handler);
  if (binding.on_method.empty() && binding.off_method.empty()) {
    --next_unit_;
    return invalid_argument(service.name +
                            " has no methods mappable to X10 ON/OFF");
  }
  unit_to_name_[binding.unit] = service.name;
  log_info("x10.adapter", service.name, " bound to ",
           x10::format_address(export_house_, binding.unit));
  bindings_[service.name] = std::move(binding);
  return Status::ok();
}

void X10Adapter::unexport_service(const std::string& name) {
  auto it = bindings_.find(name);
  if (it == bindings_.end()) return;
  unit_to_name_.erase(it->second.unit);
  bindings_.erase(it);
}

Result<int> X10Adapter::unit_for(const std::string& service_name) const {
  auto it = bindings_.find(service_name);
  if (it == bindings_.end()) {
    return not_found("no X10 binding for " + service_name);
  }
  return it->second.unit;
}

void X10Adapter::on_observed(const x10::ObservedCommand& cmd) {
  if (cmd.unit == 0) return;
  // Watched configured modules: an external ON/OFF on their address is
  // the module's native "state changed" signal.
  if (cmd.function == x10::FunctionCode::kOn ||
      cmd.function == x10::FunctionCode::kOff) {
    for (const auto& [name, config] : devices_) {
      if (config.house != cmd.house || config.unit != cmd.unit) continue;
      auto watched = watched_.find(name);
      if (watched != watched_.end() && watched->second) {
        watched->second(name, "stateChanged",
                        Value(ValueMap{{"on", Value(cmd.function ==
                                                    x10::FunctionCode::kOn)}}));
      }
    }
  }
  if (cmd.house != export_house_) return;
  auto name_it = unit_to_name_.find(cmd.unit);
  if (name_it == unit_to_name_.end()) return;
  auto& binding = bindings_.at(name_it->second);

  std::string method;
  if (cmd.function == x10::FunctionCode::kOn) {
    method = binding.on_method;
  } else if (cmd.function == x10::FunctionCode::kOff) {
    method = binding.off_method;
  } else {
    return;  // other functions have no generic mapping
  }
  if (method.empty()) return;
  log_debug("x10.adapter", "observed ", x10::to_string(cmd.function), " on ",
            x10::format_address(cmd.house, cmd.unit), " -> ",
            name_it->second, ".", method);
  binding.handler(method, {}, [](Result<Value>) {
    // One-way from the powerline's perspective: X10 cannot carry a
    // reply, so results are dropped (the §4.2 asymmetry).
  });
}

Status X10Adapter::watch_events(const LocalService& service,
                                AdapterEventFn on_event) {
  if (devices_.count(service.name) == 0) {
    return not_found("no X10 module to watch: " + service.name);
  }
  watched_[service.name] = std::move(on_event);
  return Status::ok();
}

void X10Adapter::unwatch_events(const std::string& service_name) {
  watched_.erase(service_name);
}

void X10Adapter::emit_event(const std::string& service_name,
                            const std::string& event, const Value& payload) {
  // The only event X10 can natively express is an ON/OFF flip on the
  // exported service's virtual unit; richer payloads cannot ride the
  // powerline (the same §4.2 asymmetry as replies).
  if (event != "stateChanged") return;
  auto it = bindings_.find(service_name);
  if (it == bindings_.end()) return;
  const bool on = payload.is_map() && payload.at("on").is_bool() &&
                  payload.at("on").as_bool();
  cm11a_.send_command(
      export_house_, it->second.unit,
      on ? x10::FunctionCode::kOn : x10::FunctionCode::kOff, 0,
      [](const Status&) {});
}

}  // namespace hcm::core
