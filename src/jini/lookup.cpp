#include "jini/lookup.hpp"

#include "common/logging.hpp"

namespace hcm::jini {

namespace {
// The interface remote event listeners must export.
InterfaceDesc listener_interface() {
  return InterfaceDesc{
      "RemoteEventListener",
      {MethodDesc{"serviceEvent",
                  {{"type", ValueType::kString},
                   {"item", ValueType::kMap},
                   {"seq", ValueType::kInt}},
                  ValueType::kNull,
                  true}}};
}

// A requested lease in µs, clamped to (0, kMaxLease].
Result<sim::Duration> granted_lease(const Value& requested) {
  auto lease = requested.to_int();
  if (!lease.is_ok()) return invalid_argument("bad lease duration");
  if (lease.value() <= 0 || lease.value() > LookupService::kMaxLease) {
    return LookupService::kMaxLease;
  }
  return lease.value();
}

Value lease_grant(const std::string& lease_id, sim::Duration lease) {
  ValueMap grant;
  grant.reserve(2);
  grant.emplace("duration", static_cast<std::int64_t>(lease));
  grant.emplace("lease", lease_id);
  return Value(std::move(grant));
}
}  // namespace

LookupService::LookupService(net::Network& net, net::NodeId node,
                             std::uint16_t port)
    : net_(net), node_(node), server_(net, node, port, "jini") {}

LookupService::~LookupService() { stop(); }

Status LookupService::start() {
  auto status = server_.start();
  if (!status.is_ok()) return status;
  // The start instant tells incarnations apart; a restart within the
  // same instant still moves on.
  epoch_ = std::max(epoch_ + 1,
                    static_cast<std::uint64_t>(net_.scheduler().now()) + 1);
  next_lease_ = 1;
  seq_ = 0;
  server_.register_service(
      "lookup", [this](const std::string& method, const ValueList& args,
                       InvokeResultFn done) { handle(method, args, done); });
  return Status::ok();
}

void LookupService::stop() {
  server_.stop();
  for (auto& [id, reg] : services_) net_.scheduler().cancel(reg.expiry_event);
  for (auto& [id, l] : listeners_) net_.scheduler().cancel(l.expiry_event);
  services_.clear();
  leases_.clear();
  listeners_.clear();
}

void LookupService::handle(const std::string& method, const ValueList& args,
                           InvokeResultFn done) {
  if (method == "register") return done(do_register(args));
  if (method == "renew") return done(do_renew(args));
  if (method == "cancel") return done(do_cancel(args));
  if (method == "lookup") return done(do_lookup(args));
  if (method == "notify") return done(do_notify(args));
  done(not_found("lookup service has no method " + method));
}

std::string LookupService::next_lease_id() {
  return "lease-" + std::to_string(epoch_) + "-" +
         std::to_string(next_lease_++);
}

sim::EventId LookupService::schedule_expiry(const std::string& lease_id,
                                            sim::Duration lease) {
  // Init-capture: a plain copy of the const& would be a const string,
  // which does not move, and the closure would leave the inline slot.
  return net_.scheduler().after(
      lease, [this, id = lease_id] { expire_lease(id); });
}

Result<Value> LookupService::do_register(const ValueList& args) {
  if (args.size() != 2) return invalid_argument("register(item, lease_us)");
  auto item = ServiceItem::from_value(args[0]);
  if (!item.is_ok()) return item.status();
  auto lease = granted_lease(args[1]);
  if (!lease.is_ok()) return lease.status();

  const std::string service_id = item.value().service_id;
  // Re-registration replaces the item and its lease (Jini semantics).
  if (auto it = services_.find(service_id); it != services_.end()) {
    net_.scheduler().cancel(it->second.expiry_event);
    leases_.erase(it->second.lease_id);
    services_.erase(it);
  }

  Registration reg;
  reg.item = std::move(item).take();
  reg.lease_id = next_lease_id();
  reg.expiry_event = schedule_expiry(reg.lease_id, lease.value());
  leases_[reg.lease_id] = service_id;
  fire_event(kEventRegistered, reg.item);
  auto lease_id = reg.lease_id;
  services_[service_id] = std::move(reg);
  return lease_grant(lease_id, lease.value());
}

Result<Value> LookupService::do_renew(const ValueList& args) {
  if (args.size() != 2) return invalid_argument("renew(lease, duration_us)");
  if (!args[0].is_string()) return invalid_argument("bad lease id");
  const std::string& lease_id = args[0].as_string();
  sim::EventId* expiry = nullptr;
  bool event_registration = false;
  if (auto it = leases_.find(lease_id); it != leases_.end()) {
    expiry = &services_.at(it->second).expiry_event;
  } else if (auto l = listeners_.find(lease_id); l != listeners_.end()) {
    expiry = &l->second.expiry_event;
    event_registration = true;
  } else {
    return not_found("unknown lease (expired?)");
  }
  auto lease = granted_lease(args[1]);
  if (!lease.is_ok()) return lease.status();
  net_.scheduler().cancel(*expiry);
  *expiry = schedule_expiry(lease_id, lease.value());
  if (!event_registration) return Value(static_cast<std::int64_t>(lease.value()));
  // An event registration's renewal also reports the change number: a
  // listener behind it lost an event.
  ValueMap renewal;
  renewal.reserve(2);
  renewal.emplace("duration", static_cast<std::int64_t>(lease.value()));
  renewal.emplace("seq", static_cast<std::int64_t>(seq_));
  return Value(std::move(renewal));
}

Result<Value> LookupService::do_cancel(const ValueList& args) {
  if (args.size() != 1 || !args[0].is_string()) {
    return invalid_argument("cancel(lease)");
  }
  const std::string& lease_id = args[0].as_string();
  if (auto it = leases_.find(lease_id); it != leases_.end()) {
    remove_service(it->second);
    return Value(true);
  }
  if (auto l = listeners_.find(lease_id); l != listeners_.end()) {
    net_.scheduler().cancel(l->second.expiry_event);
    listeners_.erase(l);
    return Value(true);
  }
  return Value(false);
}

Result<Value> LookupService::do_lookup(const ValueList& args) {
  if (args.size() != 2) return invalid_argument("lookup(iface, attrs)");
  ++lookups_served_;
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
  // ServiceMatches: the items, and the change number they reflect.
  ValueMap reply;
  reply.reserve(2);
  reply.emplace("items", std::move(matches));
  reply.emplace("seq", static_cast<std::int64_t>(seq_));
  return Value(std::move(reply));
}

Result<Value> LookupService::do_notify(const ValueList& args) {
  if (args.size() != 4) {
    return invalid_argument("notify(node, port, listener_id, lease_us)");
  }
  auto node = args[0].to_int();
  auto port = args[1].to_int();
  if (!node.is_ok() || !port.is_ok() || !args[2].is_string()) {
    return invalid_argument("bad listener endpoint");
  }
  auto lease = granted_lease(args[3]);
  if (!lease.is_ok()) return lease.status();
  ServiceItem listener_item;
  listener_item.service_id = args[2].as_string();
  listener_item.name = "listener";
  listener_item.interface = listener_interface();
  listener_item.endpoint = {static_cast<net::NodeId>(node.value()),
                            static_cast<std::uint16_t>(port.value())};
  Listener l;
  l.proxy = std::make_unique<Proxy>(net_, node_, std::move(listener_item));
  const std::string lease_id = next_lease_id();
  l.expiry_event = schedule_expiry(lease_id, lease.value());
  listeners_.emplace(lease_id, std::move(l));
  return lease_grant(lease_id, lease.value());
}

void LookupService::expire_lease(const std::string& lease_id) {
  if (auto it = leases_.find(lease_id); it != leases_.end()) {
    log_debug("jini.lookup", "lease expired: ", lease_id);
    remove_service(it->second);
    return;
  }
  if (listeners_.erase(lease_id) > 0) {
    log_debug("jini.lookup", "event registration expired: ", lease_id);
  }
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
  ++seq_;
  if (listeners_.empty()) return;
  // One payload per event, sent to every listener.
  ValueList args;
  args.reserve(3);
  args.emplace_back(std::string(type));
  args.push_back(item.to_value());
  args.emplace_back(static_cast<std::int64_t>(seq_));
  for (auto& [lease_id, listener] : listeners_) {
    (void)listener.proxy->invoke_one_way("serviceEvent", args);
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
    BufWriter w(net_.datagram_buffer());
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
