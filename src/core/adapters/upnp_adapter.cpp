#include "core/adapters/upnp_adapter.hpp"

namespace hcm::core {

UpnpAdapter::UpnpAdapter(net::Network& net, net::NodeId gateway_node,
                         std::uint16_t device_http_port,
                         sim::Duration search_wait)
    : net_(net),
      node_(gateway_node),
      search_wait_(search_wait),
      control_point_(net, gateway_node),
      gateway_device_(net, gateway_node, "hcm-gateway", device_http_port) {}

UpnpAdapter::~UpnpAdapter() = default;

void UpnpAdapter::list_services(ServicesFn done) {
  control_point_.search(
      search_wait_,
      [this, done = std::move(done)](std::vector<upnp::DeviceDescription> devices) {
        std::vector<LocalService> services;
        for (auto& device : devices) {
          const bool own_device = device.udn == gateway_device_.udn();
          for (auto& svc : device.services) {
            known_[svc.service_id] = svc;
            // Services on our own gateway device are imported server
            // proxies, not local UPnP services.
            if (own_device || exported_.count(svc.service_id) != 0) continue;
            LocalService service;
            service.name = svc.service_id;
            service.interface = svc.interface;
            service.attributes["upnp.device"] = Value(device.friendly_name);
            services.push_back(std::move(service));
          }
        }
        done(std::move(services));
      });
}

void UpnpAdapter::invoke(const std::string& service_name,
                         const std::string& method, const ValueList& args,
                         InvokeResultFn done) {
  obs::ScopedInvoke obs_invoke(net_.scheduler(), invoke_metrics_,
                               service_name, method);
  done = obs_invoke.wrap(std::move(done));
  // Server proxies hosted on the gateway device dispatch directly.
  if (auto exported = exported_.find(service_name);
      exported != exported_.end()) {
    exported->second(method, args, std::move(done));
    return;
  }
  auto it = known_.find(service_name);
  if (it != known_.end()) {
    control_point_.invoke(it->second, method, args, std::move(done));
    return;
  }
  // Re-discover once and retry.
  list_services([this, service_name, method, args, done = std::move(done)](
                    Result<std::vector<LocalService>>) {
    auto found = known_.find(service_name);
    if (found == known_.end()) {
      done(not_found("no UPnP service: " + service_name));
      return;
    }
    control_point_.invoke(found->second, method, args, std::move(done));
  });
}

Status UpnpAdapter::export_service(const LocalService& service,
                                   ServiceHandler handler) {
  if (exported_.count(service.name) != 0) {
    return already_exists("already exported to UPnP: " + service.name);
  }
  if (!device_started_) {
    auto status = gateway_device_.start();
    if (!status.is_ok()) return status;
    device_started_ = true;
  }
  gateway_device_.add_service(service.name, service.interface, handler);
  exported_[service.name] = std::move(handler);
  return Status::ok();
}

void UpnpAdapter::unexport_service(const std::string& name) {
  // UpnpDevice keeps the mount (devices rarely retract services); the
  // adapter stops advertising it as importable.
  exported_.erase(name);
  known_.erase(name);
}

Status UpnpAdapter::watch_events(const LocalService& service,
                                 AdapterEventFn on_event) {
  if (event_sids_.count(service.name) != 0) return Status::ok();
  auto it = known_.find(service.name);
  if (it == known_.end()) {
    return not_found("no UPnP service to watch: " + service.name);
  }
  // Reserve the slot now so a second watch while SUBSCRIBE is in flight
  // stays idempotent; the SID fills in when the device answers.
  event_sids_[service.name] = "";
  control_point_.subscribe(
      it->second,
      [name = service.name, on_event = std::move(on_event)](
          const std::string&, const std::string& event, const Value& payload) {
        on_event(name, event, payload);
      },
      [this, name = service.name](Result<std::string> sid) {
        auto slot = event_sids_.find(name);
        if (slot == event_sids_.end()) return;  // unwatched meanwhile
        if (sid.is_ok()) {
          slot->second = std::move(sid).take();
        } else {
          event_sids_.erase(slot);
        }
      });
  return Status::ok();
}

void UpnpAdapter::unwatch_events(const std::string& service_name) {
  auto sid = event_sids_.find(service_name);
  if (sid == event_sids_.end()) return;
  auto desc = known_.find(service_name);
  if (desc != known_.end() && !sid->second.empty()) {
    control_point_.unsubscribe(desc->second, sid->second);
  }
  event_sids_.erase(sid);
}

void UpnpAdapter::emit_event(const std::string& service_name,
                             const std::string& event, const Value& payload) {
  if (!device_started_ || exported_.count(service_name) == 0) return;
  gateway_device_.post_event(service_name, event, payload);
}

}  // namespace hcm::core
