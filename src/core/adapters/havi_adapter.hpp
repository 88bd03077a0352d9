// HAVi PCM adapter: converts between the framework's service model and
// the HAVi-like middleware (Registry queries, SE messaging).
//
// The adapter keeps the Registry's FCMs current from a native change
// feed: the Registry's NewSoftwareElement/GoneSoftwareElement events,
// posted through the Event Manager with the Registry's change number.
// list_services answers from that set without a native round trip. One
// getElement re-lists it on a feed gap: first contact, a change number
// that skips, a NetworkReset, or a Registry change number ahead of the
// set (a lost event), which a listing asks for at most once per
// ChangeFeed::kCheckPeriod.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/adapter.hpp"
#include "core/adapters/change_feed.hpp"
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
  // Calls an FCM the feed knows; an unknown name fails kNotFound
  // without asking the Registry.
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

  // getElement listings run to re-list after a feed gap (tests, benches).
  [[nodiscard]] std::uint64_t relists() const { return relists_; }

 private:
  // One FCM the framework can use. A server proxy (hcm.imported) keeps
  // only its name: its interface is never decoded.
  struct Fcm {
    bool imported = false;
    LocalService service;
  };

  void handle_self(const std::string& op, const ValueList& args,
                   InvokeResultFn done);
  void answer(ServicesFn done);
  void resync();
  void relist(std::uint64_t gen);
  void fail_sync(const Status& status);
  void on_registry_event(const ValueList& args);
  void add_fcm(const havi::Seid& seid, ValueMap attrs);
  void remove_fcm(const havi::Seid& seid);
  void feed_gap();
  void check_feed();

  havi::MessagingSystem& ms_;
  obs::InvokeMetrics invoke_metrics_{"havi"};
  havi::Seid self_;  // the adapter's own SE (source of its messages)
  havi::RegistryClient registry_;
  havi::Seid em_seid_;  // Event Manager (same FAV node as the Registry)
  // The Registry's FCMs as the feed last saw them, and the deployed
  // name -> SEID index (a name held twice resolves to the higher SEID,
  // as a listing in SEID order would).
  std::map<havi::Seid, Fcm> fcms_;
  std::map<std::string, havi::Seid> known_;

  ChangeFeed feed_;
  bool subscribed_ = false;  // to the Registry's change events
  sim::SimTime next_check_ = 0;  // of the Registry's change number
  std::uint64_t relists_ = 0;
  // Registry replies outlive the adapter in the messaging system's
  // pending list; their callbacks check this first.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

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
