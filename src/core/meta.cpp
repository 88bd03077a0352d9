#include "core/meta.hpp"

#include "common/join.hpp"
#include "core/shard_channel.hpp"

namespace hcm::core {

Result<MetaMiddleware::Island*> MetaMiddleware::add_island(
    const std::string& name, net::NodeId gateway_node,
    std::unique_ptr<MiddlewareAdapter> adapter, VsgProtocol protocol,
    std::uint16_t port) {
  if (islands_.count(name) != 0) {
    return already_exists("island already connected: " + name);
  }
  Island island;
  island.name = name;
  island.vsg = std::make_unique<VirtualServiceGateway>(net_, gateway_node,
                                                       name, port, protocol);
  auto status = island.vsg->start();
  if (!status.is_ok()) return status;
  island.pcm =
      std::make_unique<Pcm>(net_, *island.vsg, vsr_, std::move(adapter));
  island.events = std::make_unique<EventRouter>(net_, *island.pcm);
  status = island.events->start();
  if (!status.is_ok()) return status;
  auto [it, inserted] = islands_.emplace(name, std::move(island));
  return &it->second;
}

MetaMiddleware::Island* MetaMiddleware::island(const std::string& name) {
  auto it = islands_.find(name);
  return it == islands_.end() ? nullptr : &it->second;
}

void MetaMiddleware::refresh_all(DoneFn done) {
  // Two passes: refresh() itself is publish-then-import, so running a
  // second round guarantees each island sees services published by
  // islands that refreshed after it in the first round.
  // Each island's PCM runs on the shard owning its gateway node; its
  // refresh must be initiated there, and the per-island completions
  // marshaled back to the caller's shard, where the shared round
  // bookkeeping lives (single-writer, so no atomics needed).
  const sim::ShardId origin = ShardChannel::current_shard(net_);
  auto run_round = [this, origin](DoneFn next) {
    if (islands_.empty()) {
      next(Status::ok());
      return;
    }
    Join join(islands_.size(), std::move(next));
    for (auto& [name, island] : islands_) {
      ShardChannel::run_on_node(
          net_, island.vsg->node(),
          [this, origin, pcm = island.pcm.get(), join] {
            pcm->refresh([this, origin, join](const Status& s) {
              ShardChannel::run_on_shard(net_, origin,
                                         [s, join] { join(s); });
            });
          });
    }
  };
  run_round([run_round, done = std::move(done)](const Status& s) mutable {
    if (!s.is_ok()) {
      done(s);
      return;
    }
    run_round(std::move(done));
  });
}

Status MetaMiddleware::enable_observability(const std::string& island_name) {
  Island* isl = island(island_name);
  if (isl == nullptr) {
    return not_found("no such island: " + island_name);
  }
  if (obs_exports_.count(island_name) != 0) return Status::ok();
  if (obs_service_ == nullptr) {
    obs_service_ = std::make_unique<obs::ObservabilityService>(
        obs::Registry::global(), obs::Tracer::global());
    obs_service_->set_recorder(recorder_);
    obs_service_->set_health(health_);
  }
  std::string service =
      std::string(obs::ObservabilityService::kServiceName) + "-" + island_name;
  auto status = isl->pcm->host_service(
      service, obs::ObservabilityService::describe_interface(),
      obs_service_->handler(), [](const Status&) {});
  if (!status.is_ok()) return status;
  obs_exports_.emplace(island_name, std::move(service));
  return Status::ok();
}

void MetaMiddleware::attach_telemetry(obs::TimeSeriesRecorder* recorder,
                                      obs::HealthMonitor* health) {
  recorder_ = recorder;
  health_ = health;
  if (obs_service_ != nullptr) {
    obs_service_->set_recorder(recorder_);
    obs_service_->set_health(health_);
  }
  if (health_ == nullptr) return;
  health_->set_transition_fn([this](const obs::HealthTransition& tr) {
    // Health transitions fire from the recorder's quiesced sampling
    // points (window barriers / sampling events). Re-inject them as
    // native events of every obs-enabled island's observability
    // exposure, from that island's own shard, so cross-island
    // subscribers receive healthChanged like any adapter event.
    const Value payload = tr.to_value();
    for (const auto& [island_name, service] : obs_exports_) {
      Island* isl = island(island_name);
      if (isl == nullptr || isl->events == nullptr) continue;
      ShardChannel::run_on_node(
          net_, isl->vsg->node(),
          [events = isl->events.get(), service, payload] {
            events->on_native_event(service, "healthChanged", payload);
          });
    }
  });
}

void MetaMiddleware::start_auto_refresh(sim::Duration period) {
  stop_auto_refresh();
  auto_refresh_ = true;
  refresh_event_ = net_.scheduler().after(period, [this, period] {
    refresh_event_ = 0;
    refresh_all([this, period](const Status&) {
      if (auto_refresh_) start_auto_refresh(period);
    });
  });
}

void MetaMiddleware::stop_auto_refresh() {
  auto_refresh_ = false;
  if (refresh_event_ != 0) {
    net_.scheduler().cancel(refresh_event_);
    refresh_event_ = 0;
  }
}

}  // namespace hcm::core
