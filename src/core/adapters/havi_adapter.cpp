#include "core/adapters/havi_adapter.hpp"

namespace hcm::core {

HaviAdapter::HaviAdapter(havi::MessagingSystem& ms, havi::Seid registry)
    : ms_(ms),
      self_(ms.register_element([this](const std::string& op,
                                       const ValueList& args,
                                       InvokeResultFn done) {
        handle_self(op, args, std::move(done));
      })),
      registry_(ms, self_, registry),
      em_seid_(havi::Seid{registry.node, havi::kEventManagerHandle}) {}

HaviAdapter::~HaviAdapter() { ms_.unregister_element(self_); }

void HaviAdapter::handle_self(const std::string& op, const ValueList& args,
                              InvokeResultFn done) {
  // Event Manager notifications arrive as op "event" with
  // args ["<service>.<event>", payload].
  if (op == "event" && args.size() == 2 && args[0].is_string()) {
    const std::string& topic = args[0].as_string();
    auto dot = topic.find('.');
    if (dot != std::string::npos) {
      auto it = watches_.find(topic.substr(0, dot));
      if (it != watches_.end() && it->second.fn) {
        it->second.fn(topic.substr(0, dot), topic.substr(dot + 1), args[1]);
      }
    }
    done(Value());
    return;
  }
  done(unimplemented("PCM adapter SE takes no calls"));
}

void HaviAdapter::list_services(ServicesFn done) {
  registry_.get_elements(
      ValueMap{{havi::kAttrSeType, Value("FCM")}},
      [this, done = std::move(done)](
          Result<std::vector<havi::RegistryRecord>> records) {
        if (!records.is_ok()) {
          done(records.status());
          return;
        }
        std::vector<LocalService> services;
        for (auto& record : records.value()) {
          auto name_it = record.attributes.find(havi::kAttrName);
          auto iface_it = record.attributes.find(havi::kAttrInterface);
          if (name_it == record.attributes.end() ||
              iface_it == record.attributes.end() ||
              !name_it->second.is_string()) {
            continue;  // FCM without framework-usable description
          }
          auto iface = interface_from_value(iface_it->second);
          if (!iface.is_ok()) continue;
          std::string name = name_it->second.as_string();
          known_[name] = record.seid;
          auto imported = record.attributes.find("hcm.imported");
          if (imported != record.attributes.end() &&
              imported->second == Value(true)) {
            continue;
          }
          LocalService service;
          service.name = std::move(name);
          service.interface = std::move(iface).take();
          service.attributes = std::move(record.attributes);
          services.push_back(std::move(service));
        }
        done(std::move(services));
      });
}

void HaviAdapter::invoke(const std::string& service_name,
                         const std::string& method, const ValueList& args,
                         InvokeResultFn done) {
  obs::ScopedInvoke obs_invoke(ms_.network().scheduler(), invoke_metrics_,
                               service_name, method);
  done = obs_invoke.wrap(std::move(done));
  // Server proxies exported by this adapter dispatch directly (their
  // registry record may still be in flight).
  if (auto exported = exported_.find(service_name);
      exported != exported_.end()) {
    exported->second.handler(method, args, std::move(done));
    return;
  }
  auto it = known_.find(service_name);
  if (it != known_.end()) {
    ms_.send_request(self_, it->second, method, args, std::move(done));
    return;
  }
  // Refresh from the registry, then retry once.
  list_services([this, service_name, method, args, done = std::move(done)](
                    Result<std::vector<LocalService>> r) {
    if (!r.is_ok()) {
      done(r.status());
      return;
    }
    auto found = known_.find(service_name);
    if (found == known_.end()) {
      done(not_found("no HAVi FCM: " + service_name));
      return;
    }
    ms_.send_request(self_, found->second, method, args, std::move(done));
  });
}

Status HaviAdapter::export_service(const LocalService& service,
                                   ServiceHandler handler) {
  if (exported_.count(service.name) != 0) {
    return already_exists("already exported to HAVi: " + service.name);
  }
  // The server proxy is a plain software element whose handler is the
  // generated forwarder.
  havi::Seid seid = ms_.register_element(handler);
  ValueMap attrs{
      {havi::kAttrSeType, Value("FCM")},
      {havi::kAttrDeviceClass, Value("REMOTE")},
      {havi::kAttrName, Value(service.name)},
      {havi::kAttrInterface, interface_to_value(service.interface)},
      {"hcm.imported", Value(true)},
  };
  registry_.register_element(seid, attrs, [](const Status&) {});
  exported_[service.name] = Exported{seid, std::move(handler)};
  return Status::ok();
}

void HaviAdapter::unexport_service(const std::string& name) {
  auto it = exported_.find(name);
  if (it == exported_.end()) return;
  registry_.unregister_element(it->second.seid, [](const Status&) {});
  ms_.unregister_element(it->second.seid);
  exported_.erase(it);
}

Status HaviAdapter::watch_events(const LocalService& service,
                                 AdapterEventFn on_event) {
  if (watches_.count(service.name) != 0) return Status::ok();
  if (service.interface.events.empty()) {
    return unimplemented("HAVi FCM " + service.name + " declares no events");
  }
  Watch watch;
  watch.fn = std::move(on_event);
  havi::EventClient events(ms_, self_, em_seid_);
  for (const auto& ev : service.interface.events) {
    const std::string topic = service.name + "." + ev.name;
    events.subscribe(topic, [](const Status&) {});
    watch.topics.push_back(topic);
  }
  watches_[service.name] = std::move(watch);
  return Status::ok();
}

void HaviAdapter::unwatch_events(const std::string& service_name) {
  auto it = watches_.find(service_name);
  if (it == watches_.end()) return;
  havi::EventClient events(ms_, self_, em_seid_);
  for (const auto& topic : it->second.topics) {
    events.unsubscribe(topic, [](const Status&) {});
  }
  watches_.erase(it);
}

void HaviAdapter::emit_event(const std::string& service_name,
                             const std::string& event, const Value& payload) {
  // Posting through the Event Manager lets native HAVi subscribers of
  // the exported server proxy receive the remote event.
  havi::EventClient events(ms_, self_, em_seid_);
  events.post(service_name + "." + event, payload);
}

}  // namespace hcm::core
