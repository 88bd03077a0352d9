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
                     ValueType::kInt,  // {duration, seq} for an event lease
                     false},
          MethodDesc{"cancel", {{"lease", ValueType::kString}},
                     ValueType::kBool, false},
          MethodDesc{"lookup",
                     {{"iface", ValueType::kString},
                      {"attrs", ValueType::kMap}},
                     ValueType::kMap,
                     false},
          MethodDesc{"notify",
                     {{"node", ValueType::kInt},
                      {"port", ValueType::kInt},
                      {"listener", ValueType::kString},
                      {"lease", ValueType::kInt}},
                     ValueType::kMap,
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

Result<LeaseGrant> LeaseGrant::from_value(const Value& v) {
  if (!v.is_map() || !v.at("lease").is_string()) {
    return protocol_error("bad lease grant");
  }
  auto duration = v.at("duration").to_int();
  if (!duration.is_ok()) return protocol_error("bad lease grant");
  return LeaseGrant{v.at("lease").as_string(), duration.value()};
}

void LookupClient::lookup(const std::string& iface, const ValueMap& attrs,
                          MatchesFn done) {
  proxy_->invoke("lookup", {Value(iface), Value(attrs)},
                 [done = std::move(done)](Result<Value> r) {
                   if (!r.is_ok()) {
                     done(r.status());
                     return;
                   }
                   Value& reply = r.value();
                   auto seq = reply.at("seq").to_int();
                   if (!seq.is_ok() || !reply.at("items").is_list()) {
                     done(protocol_error("lookup reply is not a match set"));
                     return;
                   }
                   ServiceMatches matches;
                   matches.seq = static_cast<std::uint64_t>(seq.value());
                   auto& items = reply.as_map().find("items")->second.as_list();
                   matches.items.reserve(items.size());
                   for (auto& v : items) {
                     auto item = ServiceItem::from_value(std::move(v));
                     if (!item.is_ok()) {
                       done(item.status());
                       return;
                     }
                     matches.items.push_back(std::move(item).take());
                   }
                   done(std::move(matches));
                 });
}

void LookupClient::notify(net::Endpoint listener,
                          const std::string& listener_id, sim::Duration lease,
                          LeaseFn done) {
  proxy_->invoke("notify",
                 {Value(static_cast<std::int64_t>(listener.node)),
                  Value(static_cast<std::int64_t>(listener.port)),
                  Value(listener_id), Value(static_cast<std::int64_t>(lease))},
                 [done = std::move(done)](Result<Value> r) {
                   if (!r.is_ok()) {
                     done(r.status());
                     return;
                   }
                   done(LeaseGrant::from_value(r.value()));
                 });
}

void LookupClient::renew(const std::string& lease_id, sim::Duration lease,
                         RenewFn done) {
  // Refilled, not rebuilt: invoke encodes the arguments before it
  // returns, and a renewal recurs for as long as a lease lives.
  renew_args_.clear();
  renew_args_.emplace_back(lease_id);
  renew_args_.emplace_back(static_cast<std::int64_t>(lease));
  proxy_->invoke(
      "renew", renew_args_, [done = std::move(done)](Result<Value> r) {
        if (!r.is_ok()) {
          done(r.status());
          return;
        }
        const Value& reply = r.value();
        const bool event_lease = reply.is_map();
        auto granted = (event_lease ? reply.at("duration") : reply).to_int();
        auto seq = event_lease ? reply.at("seq").to_int()
                               : Result<std::int64_t>(0);
        if (!granted.is_ok() || !seq.is_ok()) {
          done(protocol_error("bad renew reply"));
          return;
        }
        done(LeaseRenewal{granted.value(),
                          static_cast<std::uint64_t>(seq.value())});
      });
}

void LookupClient::cancel(const std::string& lease_id, DoneFn done) {
  proxy_->invoke("cancel", {Value(lease_id)},
                 [done = std::move(done)](Result<Value> r) {
                   done(r.is_ok() ? Status::ok() : r.status());
                 });
}

Registrar::Registrar(net::Network& net, net::NodeId node, net::Endpoint lookup,
                     ServiceItem item, sim::Duration lease)
    : net_(net),
      client_(net, node, lookup),
      item_(std::move(item)),
      lease_(lease) {}

Registrar::~Registrar() {
  if (renew_event_ != 0) net_.scheduler().cancel(renew_event_);
}

void Registrar::join(std::function<void(const Status&)> done) {
  client_.proxy().invoke(
      "register",
      {item_.to_value(), Value(static_cast<std::int64_t>(lease_))},
      [this, done = std::move(done)](Result<Value> r) {
        if (!r.is_ok()) {
          done(r.status());
          return;
        }
        auto grant = LeaseGrant::from_value(r.value());
        if (!grant.is_ok()) {
          done(grant.status());
          return;
        }
        lease_id_ = grant.value().id;
        schedule_renew(grant.value().duration);
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
  client_.cancel(*lease_id_, [this, done = std::move(done)](const Status& s) {
    lease_id_.reset();
    done(s);
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
  client_.renew(*lease_id_, lease_, [this](Result<LeaseRenewal> granted) {
    if (!granted.is_ok()) {
      // Lease lost (lookup restarted / partition): re-join from
      // scratch so the service reappears.
      lease_id_.reset();
      join([](const Status&) {});
      return;
    }
    ++renewals_;
    schedule_renew(granted.value().duration);
  });
}

}  // namespace hcm::jini
