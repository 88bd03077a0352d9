// Jini PCM adapter: converts between the framework's service model and
// the Jini-like middleware (lookup service, leases, RMI-like calls).
//
// The adapter keeps the lookup service's items current from a native
// change feed: a leased event registration on the LUS, whose
// REGISTERED/REMOVED events carry the LUS's change number. list_services
// answers from that set without a native round trip. One full lookup
// re-lists it on a feed gap: first contact, a change number that skips,
// a lease renewal the LUS refuses (lapsed, or a LUS restart), or a
// renewal whose change number is ahead of the set (a lost event).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/adapter.hpp"
#include "core/adapters/change_feed.hpp"
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
  // Calls a service the feed knows; an unknown name fails kNotFound
  // without asking the LUS.
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

  // Lease asked for the feed's event registration, renewed at half-life:
  // each renewal is also the feed's periodic change-number check.
  static constexpr sim::Duration kFeedLease = 2 * ChangeFeed::kCheckPeriod;

  // Full lookups run to re-list after a feed gap (tests, benches).
  [[nodiscard]] std::uint64_t relists() const { return relists_; }
  // The LUS change number the listing reflects (LookupService::seq).
  [[nodiscard]] std::uint64_t feed_seq() const { return feed_.seq(); }

 private:
  jini::Proxy* proxy_for(const jini::ServiceItem& item);
  const jini::ServiceItem* find_item(const std::string& name) const;
  void answer(ServicesFn done);
  // Feed: resync registers (if needed) and re-lists; on_feed_event
  // applies one event; feed_gap marks the set stale.
  void resync();
  void relist(std::uint64_t gen);
  void fail_sync(const Status& status);
  void on_feed_event(const ValueList& args);
  void apply_registered(jini::ServiceItem item);
  void apply_removed(const std::string& service_id);
  void index(const jini::ServiceItem& item);
  void unindex(const jini::ServiceItem& item);
  void feed_gap(bool lost_registration);
  void drop_registration();
  void renew_feed(sim::Duration granted);

  net::Network& net_;
  net::NodeId node_;
  jini::LookupClient lookup_;
  obs::InvokeMetrics invoke_metrics_{"jini"};
  net::BinaryRpcServer server_;
  // The LUS's items as the feed last saw them, by service id (the
  // LUS's own order), and the deployed name -> service id index.
  std::map<std::string, jini::ServiceItem> items_;
  std::map<std::string, std::string> by_name_;
  std::map<std::string, std::unique_ptr<jini::Proxy>> proxies_;

  ChangeFeed feed_;
  std::string feed_listener_;  // listener object of the registration
  std::string feed_lease_;     // its lease ("" = not registered)
  sim::EventId feed_renew_event_ = 0;
  std::uint64_t next_feed_ = 1;
  std::uint64_t relists_ = 0;
  // Callbacks from the LUS client check this before touching the
  // adapter: the client cancels its pending calls when destroyed.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

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
