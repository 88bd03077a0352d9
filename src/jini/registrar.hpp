// Client-side lookup access: typed wrapper over the lookup service's
// remote interface, plus a JoinManager-like registrar that keeps a
// service's lease renewed for as long as it lives.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "jini/lookup.hpp"
#include "jini/proxy.hpp"

namespace hcm::jini {

// The lookup service's own remote interface.
[[nodiscard]] InterfaceDesc lookup_interface();
// A proxy to a lookup service at `endpoint`, usable from `node`.
[[nodiscard]] std::unique_ptr<Proxy> lookup_proxy(net::Network& net,
                                                  net::NodeId node,
                                                  net::Endpoint endpoint);

// A lookup reply (Jini's ServiceMatches): the matching items, and the
// lookup service's change number when it answered. Events numbered at
// or below `seq` are already reflected in `items`.
struct ServiceMatches {
  std::uint64_t seq = 0;
  std::vector<ServiceItem> items;
};

// A lease the lookup service granted, on a service registration or an
// event registration.
struct LeaseGrant {
  std::string id;
  sim::Duration duration = 0;

  static Result<LeaseGrant> from_value(const Value& v);
};

// A renewed lease. Renewing an event registration also reports the
// lookup service's change number; for a service lease `seq` is 0.
struct LeaseRenewal {
  sim::Duration duration = 0;
  std::uint64_t seq = 0;
};

class LookupClient {
 public:
  LookupClient(net::Network& net, net::NodeId node, net::Endpoint lookup)
      : proxy_(lookup_proxy(net, node, lookup)) {}

  using MatchesFn = std::function<void(Result<ServiceMatches>)>;
  // Renewals recur for as long as a lease lives: inline, never a heap cell.
  using RenewFn = SmallFn<void(Result<LeaseRenewal>), 64>;
  using LeaseFn = std::function<void(Result<LeaseGrant>)>;
  using DoneFn = std::function<void(const Status&)>;

  // Finds services by interface name ("" = all) and attribute filter.
  void lookup(const std::string& iface, const ValueMap& attrs,
              MatchesFn done);

  // Registers a remote event listener (already exported at `listener`
  // under listener_id) for `lease`. The listener gets
  // serviceEvent(type, item, seq) for every change until the lease
  // lapses or is cancelled.
  void notify(net::Endpoint listener, const std::string& listener_id,
              sim::Duration lease, LeaseFn done);

  // Renews or cancels a lease of either kind. renew fails kNotFound
  // once the lease is gone (lapsed, cancelled, or granted by an
  // earlier incarnation of the lookup service).
  void renew(const std::string& lease_id, sim::Duration lease, RenewFn done);
  void cancel(const std::string& lease_id, DoneFn done);

  [[nodiscard]] Proxy& proxy() { return *proxy_; }

 private:
  std::unique_ptr<Proxy> proxy_;
  ValueList renew_args_;  // reused by every renew()
};

// Registers a service and auto-renews its lease at half-life until
// destroyed or cancel() is called. Mirrors Jini's JoinManager.
class Registrar {
 public:
  Registrar(net::Network& net, net::NodeId node, net::Endpoint lookup,
            ServiceItem item, sim::Duration lease = sim::seconds(30));
  ~Registrar();
  Registrar(const Registrar&) = delete;
  Registrar& operator=(const Registrar&) = delete;

  // Performs the initial registration.
  void join(std::function<void(const Status&)> done);
  // Cancels the lease (service disappears from the lookup service).
  void cancel(std::function<void(const Status&)> done);

  [[nodiscard]] bool joined() const { return lease_id_.has_value(); }
  [[nodiscard]] std::uint64_t renewals() const { return renewals_; }

 private:
  void schedule_renew(sim::Duration granted);
  void renew();

  net::Network& net_;
  LookupClient client_;
  ServiceItem item_;
  sim::Duration lease_;
  std::optional<std::string> lease_id_;
  sim::EventId renew_event_ = 0;
  std::uint64_t renewals_ = 0;
};

}  // namespace hcm::jini
