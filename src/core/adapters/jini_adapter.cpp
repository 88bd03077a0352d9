#include "core/adapters/jini_adapter.hpp"

namespace hcm::core {

namespace {
// The remote-event listener surface (mirrors jini/lookup.cpp).
InterfaceDesc listener_interface() {
  return InterfaceDesc{
      "RemoteEventListener",
      {MethodDesc{"serviceEvent",
                  {{"type", ValueType::kString}, {"item", ValueType::kMap}},
                  ValueType::kNull,
                  true}}};
}

// serviceEvent carries the payload as a map; wrap scalars.
Value event_item(const Value& payload) {
  if (payload.is_map()) return payload;
  return Value(ValueMap{{"value", payload}});
}
}  // namespace

JiniAdapter::JiniAdapter(net::Network& net, net::NodeId gateway_node,
                         net::Endpoint lookup, std::uint16_t export_port)
    : net_(net),
      node_(gateway_node),
      lookup_(net, gateway_node, lookup),
      server_(net, gateway_node, export_port, "jini") {}

JiniAdapter::~JiniAdapter() = default;

Status JiniAdapter::start() { return server_.start(); }

void JiniAdapter::list_services(ServicesFn done) {
  lookup_.lookup("", {}, [this, done = std::move(done)](
                             Result<std::vector<jini::ServiceItem>> items) {
    if (!items.is_ok()) {
      done(items.status());
      return;
    }
    std::vector<LocalService> services;
    for (auto& item : items.value()) {
      // Skip server proxies this adapter exported: they are foreign.
      auto imported = item.attributes.find("hcm.imported");
      const bool is_imported =
          imported != item.attributes.end() && imported->second == Value(true);
      std::string name = item.name.empty() ? item.service_id : item.name;
      if (!is_imported) {
        LocalService service;
        service.name = name;
        service.interface = item.interface;
        service.attributes = item.attributes;
        services.push_back(std::move(service));
      }
      known_[std::move(name)] = std::move(item);
    }
    done(std::move(services));
  });
}

jini::Proxy* JiniAdapter::proxy_for(const jini::ServiceItem& item) {
  auto it = proxies_.find(item.service_id);
  if (it != proxies_.end()) return it->second.get();
  auto proxy = std::make_unique<jini::Proxy>(net_, node_, item);
  auto* raw = proxy.get();
  proxies_[item.service_id] = std::move(proxy);
  return raw;
}

void JiniAdapter::invoke(const std::string& service_name,
                         const std::string& method, const ValueList& args,
                         InvokeResultFn done) {
  obs::ScopedInvoke obs_invoke(net_.scheduler(), invoke_metrics_,
                               service_name, method);
  done = obs_invoke.wrap(std::move(done));
  // Server proxies exported by this adapter dispatch directly: lookup
  // registration is asynchronous (lease join in flight), but the proxy
  // is usable the moment export_service returns.
  if (auto exported = exported_.find(service_name);
      exported != exported_.end()) {
    exported->second.handler(method, args, std::move(done));
    return;
  }
  auto it = known_.find(service_name);
  if (it != known_.end()) {
    proxy_for(it->second)->invoke(method, args, std::move(done));
    return;
  }
  // Unknown: refresh the cache once, then retry.
  lookup_.lookup(
      "", {},
      [this, service_name, method, args, done = std::move(done)](
          Result<std::vector<jini::ServiceItem>> items) {
        if (!items.is_ok()) {
          done(items.status());
          return;
        }
        for (auto& item : items.value()) {
          std::string name = item.name.empty() ? item.service_id : item.name;
          known_[std::move(name)] = std::move(item);
        }
        auto found = known_.find(service_name);
        if (found == known_.end()) {
          done(not_found("no Jini service: " + service_name));
          return;
        }
        proxy_for(found->second)->invoke(method, args, std::move(done));
      });
}

Status JiniAdapter::export_service(const LocalService& service,
                                   ServiceHandler handler) {
  if (exported_.count(service.name) != 0) {
    return already_exists("already exported to Jini: " + service.name);
  }
  Exported exported;
  exported.service_id = "sp-" + std::to_string(next_export_++);

  InterfaceDesc iface = service.interface;
  if (!service.interface.events.empty()) {
    // The server proxy speaks the Jini remote-event pattern for the
    // events its origin declares: local clients register listeners via
    // notify/cancelNotify, and emit_event fires serviceEvent at them.
    iface.methods.push_back({"notify",
                             {{"node", ValueType::kInt},
                              {"port", ValueType::kInt},
                              {"listener", ValueType::kString}},
                             ValueType::kInt});
    iface.methods.push_back(
        {"cancelNotify", {{"id", ValueType::kInt}}, ValueType::kBool});
    handler = [this, name = service.name, inner = std::move(handler)](
                  const std::string& method, const ValueList& args,
                  InvokeResultFn done) {
      auto it = exported_.find(name);
      if (it != exported_.end() && method == "notify") {
        if (args.size() != 3 || !args[0].is_int() || !args[1].is_int() ||
            !args[2].is_string()) {
          done(invalid_argument("notify(node, port, listener_id)"));
          return;
        }
        jini::ServiceItem listener;
        listener.service_id = args[2].as_string();
        listener.name = "listener";
        listener.interface = listener_interface();
        listener.endpoint = {static_cast<net::NodeId>(args[0].as_int()),
                             static_cast<std::uint16_t>(args[1].as_int())};
        auto id = it->second.next_listener++;
        it->second.listeners[id] =
            std::make_unique<jini::Proxy>(net_, node_, std::move(listener));
        done(Value(id));
        return;
      }
      if (it != exported_.end() && method == "cancelNotify") {
        if (args.size() != 1 || !args[0].is_int()) {
          done(invalid_argument("cancelNotify(id)"));
          return;
        }
        done(Value(it->second.listeners.erase(args[0].as_int()) > 0));
        return;
      }
      inner(method, args, std::move(done));
    };
  }
  exported.handler = handler;
  server_.register_service(exported.service_id, std::move(handler));

  jini::ServiceItem item;
  item.service_id = exported.service_id;
  item.name = service.name;
  item.interface = std::move(iface);
  item.endpoint = server_.endpoint();
  item.attributes = service.attributes;
  item.attributes["hcm.imported"] = Value(true);
  exported.registrar = std::make_unique<jini::Registrar>(
      net_, node_, lookup_.proxy().item().endpoint, std::move(item));
  exported.registrar->join([](const Status&) {});
  exported_[service.name] = std::move(exported);
  return Status::ok();
}

void JiniAdapter::unexport_service(const std::string& name) {
  auto it = exported_.find(name);
  if (it == exported_.end()) return;
  server_.unregister_service(it->second.service_id);
  // Cancel the lease so the lookup service drops the item promptly.
  auto registrar = std::shared_ptr<jini::Registrar>(std::move(it->second.registrar));
  registrar->cancel([registrar](const Status&) {});
  exported_.erase(it);
}

Status JiniAdapter::watch_events(const LocalService& service,
                                 AdapterEventFn on_event) {
  if (watches_.count(service.name) != 0) return Status::ok();
  auto it = known_.find(service.name);
  if (it == known_.end()) {
    return not_found("no Jini service to watch: " + service.name);
  }
  if (it->second.interface.find_method("notify") == nullptr) {
    return unimplemented("Jini service " + service.name +
                         " has no notify method");
  }
  Watch watch;
  watch.listener_id = "evtl-" + std::to_string(next_watch_++);
  server_.register_service(
      watch.listener_id,
      [name = service.name, on_event = std::move(on_event)](
          const std::string& method, const ValueList& args,
          InvokeResultFn done) {
        if (method != "serviceEvent" || args.size() != 2 ||
            !args[0].is_string()) {
          done(invalid_argument("expected serviceEvent(type, item)"));
          return;
        }
        on_event(name, args[0].as_string(), args[1]);
        done(Value());
      });
  proxy_for(it->second)
      ->invoke("notify",
               {Value(static_cast<std::int64_t>(node_)),
                Value(static_cast<std::int64_t>(server_.endpoint().port)),
                Value(watch.listener_id)},
               [this, name = service.name](Result<Value> r) {
                 auto watch = watches_.find(name);
                 if (watch == watches_.end()) return;
                 if (r.is_ok() && r.value().is_int()) {
                   watch->second.registration = r.value().as_int();
                 }
               });
  watches_[service.name] = std::move(watch);
  return Status::ok();
}

void JiniAdapter::unwatch_events(const std::string& service_name) {
  auto it = watches_.find(service_name);
  if (it == watches_.end()) return;
  server_.unregister_service(it->second.listener_id);
  auto known = known_.find(service_name);
  if (known != known_.end() &&
      known->second.interface.find_method("cancelNotify") != nullptr) {
    proxy_for(known->second)
        ->invoke("cancelNotify", {Value(it->second.registration)},
                 [](Result<Value>) {});
  }
  watches_.erase(it);
}

void JiniAdapter::emit_event(const std::string& service_name,
                             const std::string& event, const Value& payload) {
  auto it = exported_.find(service_name);
  if (it == exported_.end()) return;
  for (auto& [id, listener] : it->second.listeners) {
    listener->invoke_one_way("serviceEvent",
                             {Value(event), event_item(payload)});
  }
}

}  // namespace hcm::core
