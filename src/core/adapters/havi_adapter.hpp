// HAVi PCM adapter: converts between the framework's service model and
// the HAVi-like middleware (Registry queries, SE messaging).
#pragma once

#include <map>

#include "core/adapter.hpp"
#include "havi/event_manager.hpp"
#include "havi/registry.hpp"
#include "obs/instrument.hpp"

namespace hcm::core {

class HaviAdapter : public MiddlewareAdapter {
 public:
  // `ms` is the gateway node's messaging system (already started);
  // `registry` is the bus Registry's SEID (on the FAV controller).
  HaviAdapter(havi::MessagingSystem& ms, havi::Seid registry);
  ~HaviAdapter() override;

  [[nodiscard]] std::string middleware_name() const override { return "havi"; }
  void list_services(ServicesFn done) override;
  void invoke(const std::string& service_name, const std::string& method,
              const ValueList& args, InvokeResultFn done) override;
  [[nodiscard]] Status export_service(const LocalService& service,
                                      ServiceHandler handler) override;
  void unexport_service(const std::string& name) override;

  // Event bridge: subscribes the adapter's SE to "<service>.<event>"
  // topics at the Event Manager; emit_event posts the same topics so
  // native subscribers see events of exported server proxies.
  [[nodiscard]] Status watch_events(const LocalService& service,
                                    AdapterEventFn on_event) override;
  void unwatch_events(const std::string& service_name) override;
  void emit_event(const std::string& service_name, const std::string& event,
                  const Value& payload) override;

 private:
  void handle_self(const std::string& op, const ValueList& args,
                   InvokeResultFn done);

  havi::MessagingSystem& ms_;
  obs::InvokeMetrics invoke_metrics_{"havi"};
  havi::Seid self_;  // the adapter's own SE (source of its messages)
  havi::RegistryClient registry_;
  havi::Seid em_seid_;  // Event Manager (same FAV node as the Registry)
  // Known FCMs by deployed name (refreshed on list_services).
  std::map<std::string, havi::Seid> known_;
  struct Exported {
    havi::Seid seid;
    ServiceHandler handler;  // direct dispatch while registration settles
  };
  std::map<std::string, Exported> exported_;
  struct Watch {
    std::vector<std::string> topics;
    AdapterEventFn fn;
  };
  std::map<std::string, Watch> watches_;  // by service name
};

}  // namespace hcm::core
