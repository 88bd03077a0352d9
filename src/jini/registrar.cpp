#include "jini/registrar.hpp"

namespace hcm::jini {

InterfaceDesc lookup_interface() {
  return InterfaceDesc{
      "LookupService",
      {
          MethodDesc{"register",
                     {{"item", ValueType::kMap}, {"lease", ValueType::kInt}},
                     ValueType::kMap,
                     false},
          MethodDesc{"renew",
                     {{"lease", ValueType::kString},
                      {"duration", ValueType::kInt}},
                     ValueType::kInt,
                     false},
          MethodDesc{"cancel", {{"lease", ValueType::kString}},
                     ValueType::kBool, false},
          MethodDesc{"lookup",
                     {{"iface", ValueType::kString},
                      {"attrs", ValueType::kMap}},
                     ValueType::kList,
                     false},
          MethodDesc{"notify",
                     {{"node", ValueType::kInt},
                      {"port", ValueType::kInt},
                      {"listener", ValueType::kString}},
                     ValueType::kInt,
                     false},
      }};
}

std::unique_ptr<Proxy> lookup_proxy(net::Network& net, net::NodeId node,
                                    net::Endpoint endpoint) {
  ServiceItem item;
  item.service_id = "lookup";
  item.name = "lookup";
  item.interface = lookup_interface();
  item.endpoint = endpoint;
  return std::make_unique<Proxy>(net, node, std::move(item));
}

void LookupClient::lookup(const std::string& iface, const ValueMap& attrs,
                          ItemsFn done) {
  proxy_->invoke("lookup", {Value(iface), Value(attrs)},
                 [done = std::move(done)](Result<Value> r) {
                   if (!r.is_ok()) {
                     done(r.status());
                     return;
                   }
                   if (!r.value().is_list()) {
                     done(protocol_error("lookup reply is not a list"));
                     return;
                   }
                   std::vector<ServiceItem> items;
                   for (auto& v : r.value().as_list()) {
                     auto item = ServiceItem::from_value(std::move(v));
                     if (!item.is_ok()) {
                       done(item.status());
                       return;
                     }
                     items.push_back(std::move(item).take());
                   }
                   done(std::move(items));
                 });
}

void LookupClient::notify(net::Endpoint listener,
                          const std::string& listener_id,
                          std::function<void(Result<std::int64_t>)> done) {
  proxy_->invoke("notify",
                 {Value(static_cast<std::int64_t>(listener.node)),
                  Value(static_cast<std::int64_t>(listener.port)),
                  Value(listener_id)},
                 [done = std::move(done)](Result<Value> r) {
                   if (!r.is_ok()) {
                     done(r.status());
                     return;
                   }
                   auto id = r.value().to_int();
                   if (!id.is_ok()) {
                     done(protocol_error("bad notify reply"));
                     return;
                   }
                   done(id.value());
                 });
}

Registrar::Registrar(net::Network& net, net::NodeId node, net::Endpoint lookup,
                     ServiceItem item, sim::Duration lease)
    : net_(net),
      proxy_(lookup_proxy(net, node, lookup)),
      item_(std::move(item)),
      lease_(lease) {}

Registrar::~Registrar() {
  if (renew_event_ != 0) net_.scheduler().cancel(renew_event_);
}

void Registrar::join(std::function<void(const Status&)> done) {
  proxy_->invoke(
      "register",
      {item_.to_value(), Value(static_cast<std::int64_t>(lease_))},
      [this, done = std::move(done)](Result<Value> r) {
        if (!r.is_ok()) {
          done(r.status());
          return;
        }
        const Value& grant = r.value();
        if (!grant.at("lease").is_string()) {
          done(protocol_error("bad lease grant"));
          return;
        }
        lease_id_ = grant.at("lease").as_string();
        auto granted = grant.at("duration").to_int();
        schedule_renew(granted.is_ok() ? granted.value() : lease_);
        done(Status::ok());
      });
}

void Registrar::cancel(std::function<void(const Status&)> done) {
  if (!lease_id_) {
    done(Status::ok());
    return;
  }
  if (renew_event_ != 0) {
    net_.scheduler().cancel(renew_event_);
    renew_event_ = 0;
  }
  proxy_->invoke("cancel", {Value(*lease_id_)},
                 [this, done = std::move(done)](Result<Value> r) {
                   lease_id_.reset();
                   done(r.is_ok() ? Status::ok() : r.status());
                 });
}

void Registrar::schedule_renew(sim::Duration granted) {
  // Renew at half-life, the standard lease discipline.
  renew_event_ = net_.scheduler().after(granted / 2, [this] {
    renew_event_ = 0;
    renew();
  });
}

void Registrar::renew() {
  if (!lease_id_) return;
  proxy_->invoke(
      "renew", {Value(*lease_id_), Value(static_cast<std::int64_t>(lease_))},
      [this](Result<Value> r) {
        if (!r.is_ok()) {
          // Lease lost (lookup restarted / partition): re-join from
          // scratch so the service reappears.
          lease_id_.reset();
          join([](const Status&) {});
          return;
        }
        ++renewals_;
        auto granted = r.value().to_int();
        schedule_renew(granted.is_ok() ? granted.value() : lease_);
      });
}

}  // namespace hcm::jini
