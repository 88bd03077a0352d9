#include "core/adapters/jini_adapter.hpp"

namespace hcm::core {

namespace {
// The listener surface of a native service's events (the laserdisc's
// serviceEvent(type, item)); the LUS's own events add a change number.
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

bool is_imported(const jini::ServiceItem& item) {
  auto it = item.attributes.find("hcm.imported");
  return it != item.attributes.end() && it->second == Value(true);
}

const std::string& deployed_name(const jini::ServiceItem& item) {
  return item.name.empty() ? item.service_id : item.name;
}
}  // namespace

JiniAdapter::JiniAdapter(net::Network& net, net::NodeId gateway_node,
                         net::Endpoint lookup, std::uint16_t export_port)
    : net_(net),
      node_(gateway_node),
      lookup_(net, gateway_node, lookup),
      server_(net, gateway_node, export_port, "jini") {}

JiniAdapter::~JiniAdapter() {
  alive_.reset();
  drop_registration();
}

Status JiniAdapter::start() { return server_.start(); }

void JiniAdapter::list_services(ServicesFn done) {
  if (feed_.live()) {
    answer(std::move(done));
  } else if (feed_.wait(std::move(done))) {
    resync();
  }
}

void JiniAdapter::answer(ServicesFn done) {
  std::vector<LocalService> services;
  services.reserve(items_.size());
  for (const auto& [id, item] : items_) {
    // Skip server proxies this adapter exported: they are foreign.
    if (is_imported(item)) continue;
    services.push_back(
        LocalService{deployed_name(item), item.interface, item.attributes});
  }
  net_.scheduler().after(0, [services = std::move(services),
                             done = std::move(done)]() mutable {
    done(std::move(services));
  });
}

void JiniAdapter::resync() {
  const std::uint64_t gen = feed_.begin_sync();
  if (!feed_lease_.empty()) {
    relist(gen);
    return;
  }
  // A fresh listener object per registration: events a dropped
  // registration still has in flight find no receiver.
  feed_listener_ = "lus-feed-" + std::to_string(next_feed_++);
  server_.register_service(
      feed_listener_,
      [this, id = feed_listener_](const std::string& method,
                                  const ValueList& args, InvokeResultFn done) {
        if (method != "serviceEvent") {
          done(invalid_argument("expected serviceEvent(type, item, seq)"));
          return;
        }
        if (id == feed_listener_) on_feed_event(args);
        done(Value());
      });
  lookup_.notify(server_.endpoint(), feed_listener_, kFeedLease,
                 [this, gen, alive = std::weak_ptr<bool>(alive_)](
                     Result<jini::LeaseGrant> grant) {
                   if (alive.expired() || feed_.stale(gen)) return;
                   if (!grant.is_ok()) {
                     fail_sync(grant.status());
                     return;
                   }
                   feed_lease_ = grant.value().id;
                   renew_feed(grant.value().duration);
                   relist(gen);
                 });
}

void JiniAdapter::relist(std::uint64_t gen) {
  ++relists_;
  lookup_.lookup(
      "", {},
      [this, gen, alive = std::weak_ptr<bool>(alive_)](
          Result<jini::ServiceMatches> matches) {
        if (alive.expired() || feed_.stale(gen)) return;
        if (!matches.is_ok()) {
          fail_sync(matches.status());
          return;
        }
        items_.clear();
        by_name_.clear();
        for (auto& item : matches.value().items) {
          index(item);
          std::string id = item.service_id;
          items_.emplace(std::move(id), std::move(item));
        }
        // Cached proxies survive only while their item is unchanged.
        std::erase_if(proxies_, [this](const auto& entry) {
          auto item = items_.find(entry.first);
          return item == items_.end() || !(item->second == entry.second->item());
        });
        for (const auto& args : feed_.go_live(matches.value().seq)) {
          on_feed_event(args);
        }
        for (auto& done : feed_.take_waiting()) answer(std::move(done));
      });
}

void JiniAdapter::fail_sync(const Status& status) {
  drop_registration();
  (void)feed_.gap();
  for (auto& done : feed_.take_waiting()) done(status);
}

void JiniAdapter::on_feed_event(const ValueList& args) {
  if (args.size() != 3 || !args[0].is_string() || !args[2].is_int()) return;
  switch (feed_.admit(static_cast<std::uint64_t>(args[2].as_int()), args)) {
    case ChangeFeed::Verdict::kApply:
      break;
    case ChangeFeed::Verdict::kGap:
      // An event went missing; the registration itself still holds.
      feed_gap(/*lost_registration=*/false);
      return;
    default:
      return;
  }
  const std::string& type = args[0].as_string();
  if (type == jini::kEventRegistered) {
    auto item = jini::ServiceItem::from_value(args[1]);
    if (item.is_ok()) {
      apply_registered(std::move(item).take());
    } else {
      feed_gap(/*lost_registration=*/false);
    }
  } else if (type == jini::kEventRemoved && args[1].at("id").is_string()) {
    apply_removed(args[1].at("id").as_string());
  }
}

void JiniAdapter::apply_registered(jini::ServiceItem item) {
  auto it = items_.find(item.service_id);
  if (it == items_.end()) {
    index(item);
    std::string id = item.service_id;
    items_.emplace(std::move(id), std::move(item));
    return;
  }
  if (it->second == item) return;
  // Re-registration with a new description: the cached proxy checks
  // calls against the old interface, so it goes too.
  unindex(it->second);
  proxies_.erase(item.service_id);
  it->second = std::move(item);
  index(it->second);
}

void JiniAdapter::apply_removed(const std::string& service_id) {
  auto it = items_.find(service_id);
  if (it == items_.end()) return;
  unindex(it->second);
  proxies_.erase(service_id);
  items_.erase(it);
}

// A name held by several items resolves to the highest service id, as
// a re-list that indexes items in order would.
void JiniAdapter::index(const jini::ServiceItem& item) {
  auto [pos, inserted] = by_name_.emplace(deployed_name(item), item.service_id);
  if (!inserted && pos->second < item.service_id) pos->second = item.service_id;
}

void JiniAdapter::unindex(const jini::ServiceItem& item) {
  const std::string& name = deployed_name(item);
  auto pos = by_name_.find(name);
  if (pos == by_name_.end() || pos->second != item.service_id) return;
  by_name_.erase(pos);
  for (const auto& [id, other] : items_) {
    if (id != item.service_id && deployed_name(other) == name) {
      by_name_[name] = id;
    }
  }
}

void JiniAdapter::feed_gap(bool lost_registration) {
  if (lost_registration) drop_registration();
  if (feed_.gap()) resync();  // listings in flight start over
}

void JiniAdapter::drop_registration() {
  if (feed_renew_event_ != 0) {
    net_.scheduler().cancel(feed_renew_event_);
    feed_renew_event_ = 0;
  }
  if (!feed_listener_.empty()) {
    server_.unregister_service(feed_listener_);
    feed_listener_.clear();
  }
  if (!feed_lease_.empty()) {
    lookup_.cancel(feed_lease_, [](const Status&) {});
    feed_lease_.clear();
  }
}

void JiniAdapter::renew_feed(sim::Duration granted) {
  feed_renew_event_ = net_.scheduler().after(granted / 2, [this] {
    feed_renew_event_ = 0;
    lookup_.renew(feed_lease_, kFeedLease,
                  [this, lease = feed_lease_,
                   alive = std::weak_ptr<bool>(alive_)](
                      Result<jini::LeaseRenewal> renewed) {
                    if (alive.expired() || lease != feed_lease_) return;
                    if (!renewed.is_ok()) {
                      // Lapsed, or the LUS restarted and forgot it.
                      feed_gap(/*lost_registration=*/true);
                      return;
                    }
                    renew_feed(renewed.value().duration);
                    // An event lost on the way, with none after it.
                    if (feed_.behind(renewed.value().seq)) {
                      feed_gap(/*lost_registration=*/false);
                    }
                  });
  });
}

const jini::ServiceItem* JiniAdapter::find_item(const std::string& name) const {
  auto pos = by_name_.find(name);
  return pos == by_name_.end() ? nullptr : &items_.at(pos->second);
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
  if (const jini::ServiceItem* item = find_item(service_name)) {
    proxy_for(*item)->invoke(method, args, std::move(done));
    return;
  }
  done(not_found("no Jini service: " + service_name));
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
  const jini::ServiceItem* item = find_item(service.name);
  if (item == nullptr) {
    return not_found("no Jini service to watch: " + service.name);
  }
  if (item->interface.find_method("notify") == nullptr) {
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
  proxy_for(*item)
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
  const jini::ServiceItem* item = find_item(service_name);
  if (item != nullptr &&
      item->interface.find_method("cancelNotify") != nullptr) {
    proxy_for(*item)
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
