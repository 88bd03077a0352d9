// UPnP PCM adapter — the paper's §5 claim made concrete: "We can
// connect the UPnP service to other middleware by developing a PCM for
// UPnP." Nothing else in the framework changes.
#pragma once

#include <map>
#include <memory>

#include "core/adapter.hpp"
#include "obs/instrument.hpp"
#include "upnp/upnp.hpp"

namespace hcm::core {

class UpnpAdapter : public MiddlewareAdapter {
 public:
  UpnpAdapter(net::Network& net, net::NodeId gateway_node,
              std::uint16_t device_http_port = 5100,
              sim::Duration search_wait = sim::milliseconds(200));
  ~UpnpAdapter() override;

  [[nodiscard]] std::string middleware_name() const override { return "upnp"; }
  void list_services(ServicesFn done) override;
  void invoke(const std::string& service_name, const std::string& method,
              const ValueList& args, InvokeResultFn done) override;
  [[nodiscard]] Status export_service(const LocalService& service,
                                      ServiceHandler handler) override;
  void unexport_service(const std::string& name) override;

  // Event bridge: watch_events GENA-subscribes at the device, NOTIFYs
  // flow back to the control point's callback server; emit_event posts
  // remote events to the gateway device's GENA subscribers.
  [[nodiscard]] Status watch_events(const LocalService& service,
                                    AdapterEventFn on_event) override;
  void unwatch_events(const std::string& service_name) override;
  void emit_event(const std::string& service_name, const std::string& event,
                  const Value& payload) override;

 private:
  net::Network& net_;
  net::NodeId node_;
  sim::Duration search_wait_;
  obs::InvokeMetrics invoke_metrics_{"upnp"};
  upnp::ControlPoint control_point_;
  // Gateway-hosted device carrying the exported server proxies.
  upnp::UpnpDevice gateway_device_;
  bool device_started_ = false;
  std::map<std::string, upnp::ServiceDescription> known_;
  std::map<std::string, ServiceHandler> exported_;
  std::map<std::string, std::string> event_sids_;  // service -> GENA SID
};

}  // namespace hcm::core
