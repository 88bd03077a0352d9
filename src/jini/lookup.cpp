#include "jini/lookup.hpp"

#include "common/logging.hpp"

namespace hcm::jini {

namespace {
// The interface remote event listeners must export.
InterfaceDesc listener_interface() {
  return InterfaceDesc{
      "RemoteEventListener",
      {MethodDesc{"serviceEvent",
                  {{"type", ValueType::kString}, {"item", ValueType::kMap}},
                  ValueType::kNull,
                  true}}};
}
}  // namespace

LookupService::LookupService(net::Network& net, net::NodeId node,
                             std::uint16_t port)
    : net_(net), node_(node), server_(net, node, port, "jini") {}

LookupService::~LookupService() { stop(); }

Status LookupService::start() {
  auto status = server_.start();
  if (!status.is_ok()) return status;
  server_.register_service(
      "lookup", [this](const std::string& method, const ValueList& args,
                       InvokeResultFn done) { handle(method, args, done); });
  return Status::ok();
}

void LookupService::stop() { server_.stop(); }

void LookupService::handle(const std::string& method, const ValueList& args,
                           InvokeResultFn done) {
  if (method == "register") return done(do_register(args));
  if (method == "renew") return done(do_renew(args));
  if (method == "cancel") return done(do_cancel(args));
  if (method == "lookup") return done(do_lookup(args));
  if (method == "notify") return done(do_notify(args));
  done(not_found("lookup service has no method " + method));
}

Result<Value> LookupService::do_register(const ValueList& args) {
  if (args.size() != 2) return invalid_argument("register(item, lease_us)");
  auto item = ServiceItem::from_value(args[0]);
  if (!item.is_ok()) return item.status();
  auto requested = args[1].to_int();
  if (!requested.is_ok()) return invalid_argument("bad lease duration");

  sim::Duration lease = requested.value();
  if (lease <= 0 || lease > kMaxLease) lease = kMaxLease;

  const std::string service_id = item.value().service_id;
  // Re-registration replaces the item and its lease (Jini semantics).
  if (auto it = services_.find(service_id); it != services_.end()) {
    net_.scheduler().cancel(it->second.expiry_event);
    leases_.erase(it->second.lease_id);
    services_.erase(it);
  }

  Registration reg;
  reg.item = std::move(item).take();
  reg.lease_id = "lease-" + std::to_string(next_lease_++);
  reg.expiry_event = net_.scheduler().after(
      lease, [this, lease_id = reg.lease_id] { expire_lease(lease_id); });
  leases_[reg.lease_id] = service_id;
  fire_event(kEventRegistered, reg.item);
  auto lease_id = reg.lease_id;
  services_[service_id] = std::move(reg);
  return Value(ValueMap{
      {"lease", Value(lease_id)},
      {"duration", Value(static_cast<std::int64_t>(lease))},
  });
}

Result<Value> LookupService::do_renew(const ValueList& args) {
  if (args.size() != 2) return invalid_argument("renew(lease, duration_us)");
  if (!args[0].is_string()) return invalid_argument("bad lease id");
  auto it = leases_.find(args[0].as_string());
  if (it == leases_.end()) return not_found("unknown lease (expired?)");
  auto requested = args[1].to_int();
  if (!requested.is_ok()) return invalid_argument("bad lease duration");
  sim::Duration lease = requested.value();
  if (lease <= 0 || lease > kMaxLease) lease = kMaxLease;

  auto& reg = services_.at(it->second);
  net_.scheduler().cancel(reg.expiry_event);
  reg.expiry_event = net_.scheduler().after(
      lease, [this, lease_id = reg.lease_id] { expire_lease(lease_id); });
  return Value(static_cast<std::int64_t>(lease));
}

Result<Value> LookupService::do_cancel(const ValueList& args) {
  if (args.size() != 1 || !args[0].is_string()) {
    return invalid_argument("cancel(lease)");
  }
  auto it = leases_.find(args[0].as_string());
  if (it == leases_.end()) return Value(false);
  remove_service(it->second);
  return Value(true);
}

Result<Value> LookupService::do_lookup(const ValueList& args) {
  if (args.size() != 2) return invalid_argument("lookup(iface, attrs)");
  const std::string iface =
      args[0].is_string() ? args[0].as_string() : "";
  const ValueMap none;
  const ValueMap& attrs = args[1].is_map() ? args[1].as_map() : none;
  ValueList matches;
  for (const auto& [id, reg] : services_) {
    if (!iface.empty() && reg.item.interface.name != iface) continue;
    bool ok = true;
    for (const auto& [k, v] : attrs) {
      auto found = reg.item.attributes.find(k);
      if (found == reg.item.attributes.end() || !(found->second == v)) {
        ok = false;
        break;
      }
    }
    if (ok) matches.push_back(reg.item.to_value());
  }
  return Value(std::move(matches));
}

Result<Value> LookupService::do_notify(const ValueList& args) {
  if (args.size() != 3) {
    return invalid_argument("notify(node, port, listener_id)");
  }
  auto node = args[0].to_int();
  auto port = args[1].to_int();
  if (!node.is_ok() || !port.is_ok() || !args[2].is_string()) {
    return invalid_argument("bad listener endpoint");
  }
  ServiceItem listener_item;
  listener_item.service_id = args[2].as_string();
  listener_item.name = "listener";
  listener_item.interface = listener_interface();
  listener_item.endpoint = {static_cast<net::NodeId>(node.value()),
                            static_cast<std::uint16_t>(port.value())};
  Listener l;
  l.proxy = std::make_unique<Proxy>(net_, node_, std::move(listener_item));
  auto id = next_listener_++;
  listeners_.emplace(id, std::move(l));
  return Value(id);
}

void LookupService::expire_lease(const std::string& lease_id) {
  auto it = leases_.find(lease_id);
  if (it == leases_.end()) return;
  log_debug("jini.lookup", "lease expired: ", lease_id);
  remove_service(it->second);
}

void LookupService::remove_service(const std::string& service_id) {
  auto it = services_.find(service_id);
  if (it == services_.end()) return;
  net_.scheduler().cancel(it->second.expiry_event);
  leases_.erase(it->second.lease_id);
  ServiceItem item = std::move(it->second.item);
  services_.erase(it);
  fire_event(kEventRemoved, item);
}

void LookupService::fire_event(const char* type, const ServiceItem& item) {
  ++events_fired_;
  for (auto& [id, listener] : listeners_) {
    listener.proxy->invoke_one_way(
        "serviceEvent", {Value(std::string(type)), item.to_value()});
  }
}

// --- Discovery --------------------------------------------------------

namespace {
constexpr const char* kRequestMagic = "JINI-DISCOVERY-REQUEST";
}  // namespace

DiscoveryResponder::DiscoveryResponder(net::Network& net, net::NodeId node,
                                       net::Endpoint lookup_endpoint)
    : net_(net), node_(node), lookup_endpoint_(lookup_endpoint) {}

Status DiscoveryResponder::start() {
  net::Node* n = net_.node(node_);
  if (n == nullptr) return not_found("no such node");
  net_.join_group(node_, kDiscoveryGroup);
  return n->bind(kDiscoveryPort, [this](net::Endpoint from,
                                        const Bytes& data) {
    if (to_string(data) != kRequestMagic) return;
    BufWriter w;
    w.put_u32(lookup_endpoint_.node);
    w.put_u16(lookup_endpoint_.port);
    net_.send_datagram({node_, kDiscoveryPort}, from, w.take());
  });
}

void DiscoveryClient::discover(sim::Duration wait, FoundFn done) {
  net::Node* n = net_.node(node_);
  if (n == nullptr) {
    done({});
    return;
  }
  auto found = std::make_shared<std::vector<net::Endpoint>>();
  const std::uint16_t port = reply_port_++;
  n->bind(port, [found](net::Endpoint, const Bytes& data) {
    BufReader r(data);
    auto node = r.u32();
    auto p = r.u16();
    if (node.is_ok() && p.is_ok()) {
      found->push_back({node.value(), p.value()});
    }
  });
  net_.send_multicast({node_, port}, kDiscoveryGroup, kDiscoveryPort,
                      to_bytes(kRequestMagic));
  net_.scheduler().after(wait, [this, port, found, done = std::move(done)] {
    if (net::Node* node = net_.node(node_)) node->unbind(port);
    done(*found);
  });
}

}  // namespace hcm::jini
