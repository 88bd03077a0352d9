// The Jini Lookup Service ("reggie"): service registration with leases,
// template matching lookup, remote service events, and multicast
// discovery responses. Faithful to the Jini architecture spec's
// externally visible behaviour.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "jini/proxy.hpp"
#include "jini/protocol.hpp"
#include "net/binary_channel.hpp"
#include "net/network.hpp"

namespace hcm::jini {

// Event types delivered to registered listeners.
inline constexpr const char* kEventRegistered = "REGISTERED";
inline constexpr const char* kEventRemoved = "REMOVED";

// Listeners registered with notify export serviceEvent(type, item, seq),
// where seq is the change number (LookupService::seq) of the event.
// Events are one-way and may be lost; renewing the registration's
// lease answers {duration, seq}, so a listener finds out at the latest
// at its next renewal.

class LookupService {
 public:
  LookupService(net::Network& net, net::NodeId node,
                std::uint16_t port = kLookupPort);
  ~LookupService();
  LookupService(const LookupService&) = delete;
  LookupService& operator=(const LookupService&) = delete;

  // Starts an incarnation. Its lease ids carry a fresh epoch, so a lease
  // an earlier incarnation granted is unknown to this one.
  Status start();
  // Stops serving and forgets every service and event registration, as
  // a lookup service process that goes down does.
  void stop();

  [[nodiscard]] net::Endpoint endpoint() const { return server_.endpoint(); }
  [[nodiscard]] std::size_t service_count() const { return services_.size(); }
  [[nodiscard]] std::size_t listener_count() const {
    return listeners_.size();
  }
  // The change sequence number: every registration, re-registration and
  // removal since start() takes the next one. Events carry it, and so
  // does every lookup reply, so a listener can tell which events a
  // snapshot already holds.
  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  [[nodiscard]] std::uint64_t lookups_served() const { return lookups_served_; }

  // Longest lease granted, for services and event registrations alike;
  // also what a request for 0 or more gets.
  static constexpr sim::Duration kMaxLease = sim::seconds(300);

 private:
  void handle(const std::string& method, const ValueList& args,
              InvokeResultFn done);
  Result<Value> do_register(const ValueList& args);
  Result<Value> do_renew(const ValueList& args);
  Result<Value> do_cancel(const ValueList& args);
  Result<Value> do_lookup(const ValueList& args);
  Result<Value> do_notify(const ValueList& args);
  std::string next_lease_id();
  sim::EventId schedule_expiry(const std::string& lease_id,
                               sim::Duration lease);
  void expire_lease(const std::string& lease_id);
  void remove_service(const std::string& service_id);
  void fire_event(const char* type, const ServiceItem& item);

  net::Network& net_;
  net::NodeId node_;
  net::BinaryRpcServer server_;

  struct Registration {
    ServiceItem item;
    std::string lease_id;
    sim::EventId expiry_event = 0;
  };
  std::map<std::string, Registration> services_;  // by service_id
  std::map<std::string, std::string> leases_;     // lease_id -> service_id

  struct Listener {
    std::unique_ptr<Proxy> proxy;
    sim::EventId expiry_event = 0;
  };
  std::map<std::string, Listener> listeners_;  // by lease_id

  std::uint64_t epoch_ = 0;  // the current incarnation's start instant
  std::uint64_t next_lease_ = 1;
  std::uint64_t seq_ = 0;
  std::uint64_t lookups_served_ = 0;
};

// Announces/locates lookup services via multicast (the discovery
// protocol): clients multicast a request, lookup services answer with
// their endpoint.
class DiscoveryResponder {
 public:
  DiscoveryResponder(net::Network& net, net::NodeId node,
                     net::Endpoint lookup_endpoint);
  Status start();

 private:
  net::Network& net_;
  net::NodeId node_;
  net::Endpoint lookup_endpoint_;
};

class DiscoveryClient {
 public:
  DiscoveryClient(net::Network& net, net::NodeId node)
      : net_(net), node_(node) {}

  using FoundFn = std::function<void(std::vector<net::Endpoint>)>;
  // Multicasts a request and collects answers for `wait`.
  void discover(sim::Duration wait, FoundFn done);

 private:
  net::Network& net_;
  net::NodeId node_;
  std::uint16_t reply_port_ = 14160;
};

}  // namespace hcm::jini
