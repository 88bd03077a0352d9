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

class LookupService {
 public:
  LookupService(net::Network& net, net::NodeId node,
                std::uint16_t port = kLookupPort);
  ~LookupService();
  LookupService(const LookupService&) = delete;
  LookupService& operator=(const LookupService&) = delete;

  Status start();
  void stop();

  [[nodiscard]] net::Endpoint endpoint() const { return server_.endpoint(); }
  [[nodiscard]] std::size_t service_count() const { return services_.size(); }

  // Default lease granted when the client asks for 0/overlong leases.
  static constexpr sim::Duration kMaxLease = sim::seconds(300);

 private:
  void handle(const std::string& method, const ValueList& args,
              InvokeResultFn done);
  Result<Value> do_register(const ValueList& args);
  Result<Value> do_renew(const ValueList& args);
  Result<Value> do_cancel(const ValueList& args);
  Result<Value> do_lookup(const ValueList& args);
  Result<Value> do_notify(const ValueList& args);
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
  std::uint64_t next_lease_ = 1;

  struct Listener {
    std::unique_ptr<Proxy> proxy;
  };
  std::map<std::int64_t, Listener> listeners_;
  std::int64_t next_listener_ = 1;
  std::uint64_t events_fired_ = 0;

 public:
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }
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
