// MetaMiddleware: the orchestration facade over the whole framework —
// "a kind of Meta middleware" (paper §6). Owns the VSG + PCM pair for
// every middleware island and drives synchronization, so an application
// adds an island in one call and services flow everywhere.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/event_router.hpp"
#include "core/pcm.hpp"
#include "core/vsg.hpp"
#include "core/vsr.hpp"
#include "obs/health.hpp"
#include "obs/service.hpp"
#include "obs/timeseries.hpp"

namespace hcm::core {

class MetaMiddleware {
 public:
  MetaMiddleware(net::Network& net, net::Endpoint vsr)
      : net_(net), vsr_(vsr) {}
  MetaMiddleware(const MetaMiddleware&) = delete;
  MetaMiddleware& operator=(const MetaMiddleware&) = delete;

  struct Island {
    std::string name;
    std::unique_ptr<VirtualServiceGateway> vsg;
    std::unique_ptr<Pcm> pcm;
    // Declared after pcm: the router is destroyed first, so the PCM it
    // resolves services through, and the adapter it watches events
    // through, always outlive it.
    std::unique_ptr<EventRouter> events;
  };

  // Connects a middleware island: creates its VSG on `gateway_node` and
  // a PCM driving `adapter`. New middleware participates by providing
  // only the adapter — the §3 "effortlessly" property.
  [[nodiscard]] Result<Island*> add_island(
      const std::string& name, net::NodeId gateway_node,
      std::unique_ptr<MiddlewareAdapter> adapter,
      VsgProtocol protocol = VsgProtocol::kSoap, std::uint16_t port = 8080);

  [[nodiscard]] Island* island(const std::string& name);
  [[nodiscard]] std::size_t island_count() const { return islands_.size(); }

  using DoneFn = std::function<void(const Status&)>;
  // Two-phase synchronization across all islands: every PCM publishes
  // its locals, then every PCM imports, so ordering between islands
  // doesn't matter.
  void refresh_all(DoneFn done);

  // Starts periodic refresh (service dynamism: arrivals/departures
  // propagate within one period).
  void start_auto_refresh(sim::Duration period);
  void stop_auto_refresh();

  // Hosts the introspection service ("observability-<island>") on the
  // island's PCM (Pcm::host_service), which exposes it on the VSG and
  // publishes its WSDL to the VSR, so any connected middleware can call
  // getMetrics/getTrace through the framework itself. Opt-in: it adds a
  // VSR entry, which applications counting deployed services would
  // otherwise see. The PCM leases it with the island's other entries.
  [[nodiscard]] Status enable_observability(const std::string& island_name);
  [[nodiscard]] bool observability_enabled(
      const std::string& island_name) const {
    return obs_exports_.count(island_name) != 0;
  }

  // Wires the fleet telemetry backends (owned by the scenario) into the
  // framework: getSeries/getHealth on every observability exposure are
  // served from `recorder`/`health`, and health-state transitions are
  // re-injected as healthChanged events on each obs-enabled island's
  // event bridge, so any island can subscribe to them like any other
  // cross-middleware event. Either pointer may be null; applies to
  // islands enabled before and after the call.
  void attach_telemetry(obs::TimeSeriesRecorder* recorder,
                        obs::HealthMonitor* health);

 private:
  net::Network& net_;
  net::Endpoint vsr_;
  // Declared before islands_: the islands' VSGs hold its handler, so it
  // must outlive them.
  std::unique_ptr<obs::ObservabilityService> obs_service_;
  std::map<std::string, Island> islands_;
  // Island name -> its observability service ("observability-<island>").
  std::map<std::string, std::string> obs_exports_;
  obs::TimeSeriesRecorder* recorder_ = nullptr;
  obs::HealthMonitor* health_ = nullptr;
  sim::EventId refresh_event_ = 0;
  bool auto_refresh_ = false;
};

}  // namespace hcm::core
