// Jini PCM adapter: converts between the framework's service model and
// the Jini-like middleware (lookup service, leases, RMI-like calls).
#pragma once

#include <map>
#include <memory>

#include "core/adapter.hpp"
#include "jini/registrar.hpp"
#include "net/binary_channel.hpp"
#include "obs/instrument.hpp"

namespace hcm::core {

class JiniAdapter : public MiddlewareAdapter {
 public:
  JiniAdapter(net::Network& net, net::NodeId gateway_node,
              net::Endpoint lookup, std::uint16_t export_port = 4170);
  ~JiniAdapter() override;

  [[nodiscard]] Status start();

  [[nodiscard]] std::string middleware_name() const override { return "jini"; }
  void list_services(ServicesFn done) override;
  void invoke(const std::string& service_name, const std::string& method,
              const ValueList& args, InvokeResultFn done) override;
  [[nodiscard]] Status export_service(const LocalService& service,
                                      ServiceHandler handler) override;
  void unexport_service(const std::string& name) override;

  // Event bridge: registers a remote-event listener with the native
  // service (its "notify" method, the Jini remote-event pattern);
  // emit_event fires serviceEvent at listeners local clients registered
  // on an exported server proxy.
  [[nodiscard]] Status watch_events(const LocalService& service,
                                    AdapterEventFn on_event) override;
  void unwatch_events(const std::string& service_name) override;
  void emit_event(const std::string& service_name, const std::string& event,
                  const Value& payload) override;

 private:
  jini::Proxy* proxy_for(const jini::ServiceItem& item);

  net::Network& net_;
  net::NodeId node_;
  jini::LookupClient lookup_;
  obs::InvokeMetrics invoke_metrics_{"jini"};
  net::BinaryRpcServer server_;
  // Known local services by deployed name (refreshed on list_services).
  std::map<std::string, jini::ServiceItem> known_;
  std::map<std::string, std::unique_ptr<jini::Proxy>> proxies_;
  struct Exported {
    std::string service_id;
    ServiceHandler handler;  // direct dispatch while the join settles
    std::unique_ptr<jini::Registrar> registrar;
    // Listeners local Jini clients registered via the synthesized
    // notify/cancelNotify surface of the server proxy.
    std::map<std::int64_t, std::unique_ptr<jini::Proxy>> listeners;
    std::int64_t next_listener = 1;
  };
  std::map<std::string, Exported> exported_;
  std::uint64_t next_export_ = 1;
  struct Watch {
    std::string listener_id;        // exported listener object
    std::int64_t registration = 0;  // id the service's notify returned
  };
  std::map<std::string, Watch> watches_;  // by service name
  std::uint64_t next_watch_ = 1;
};

}  // namespace hcm::core
