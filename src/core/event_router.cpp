#include "core/event_router.hpp"

#include <algorithm>
#include <utility>

#include "obs/slab.hpp"
#include "soap/wsdl.hpp"

namespace hcm::core {

const InterfaceDesc& EventRouter::bridge_interface() {
  static const InterfaceDesc iface{
      "HcmEventBridge",
      {
          {"subscribe",
           {{"service", ValueType::kString},
            {"event", ValueType::kString},
            {"sink", ValueType::kString},
            {"lease", ValueType::kInt}},
           ValueType::kMap},
          {"renew",
           {{"lease", ValueType::kString}, {"duration", ValueType::kInt}},
           ValueType::kInt},
          {"unsubscribe", {{"lease", ValueType::kString}}, ValueType::kBool},
          {"deliver", {{"batch", ValueType::kList}}, ValueType::kInt},
      },
  };
  return iface;
}

EventRouter::EventRouter(net::Network& net, Pcm& pcm)
    : net_(net),
      pcm_(pcm),
      vsg_(pcm.vsg()),
      adapter_(pcm.adapter()),
      obs_scope_(obs::shard_registry().unique_scope("events." +
                                                      vsg_.island_name())),
      events_routed_(
          obs::shard_registry().counter(obs_scope_ + ".routed")),
      events_dropped_(
          obs::shard_registry().counter(obs_scope_ + ".dropped")),
      events_delivered_(
          obs::shard_registry().counter(obs_scope_ + ".delivered")),
      batches_sent_(obs::shard_registry().counter(obs_scope_ + ".batches")),
      leases_expired_(
          obs::shard_registry().counter(obs_scope_ + ".leases_expired")),
      delivery_retries_(
          obs::shard_registry().counter(obs_scope_ + ".retries")),
      duplicates_dropped_(
          obs::shard_registry().counter(obs_scope_ + ".duplicates")),
      delivery_latency_us_(obs::shard_registry().histogram(
          obs_scope_ + ".delivery_latency_us")) {}

EventRouter::~EventRouter() {
  auto& sched = net_.scheduler();
  for (auto& [id, sub] : subs_) {
    if (sub.expiry_event != 0) sched.cancel(sub.expiry_event);
    if (sub.flush_event != 0) sched.cancel(sub.flush_event);
    if (sub.retry_event != 0) sched.cancel(sub.retry_event);
  }
  for (auto& [id, ls] : local_subs_) {
    if (ls.renew_event != 0) sched.cancel(ls.renew_event);
  }
}

Status EventRouter::start() {
  auto uri = vsg_.expose(
      kBridgeService, bridge_interface(),
      [this](const std::string& method, const ValueList& args,
             InvokeResultFn done) {
        if (method == "subscribe") {
          handle_subscribe(args, std::move(done));
        } else if (method == "renew") {
          handle_renew(args, std::move(done));
        } else if (method == "unsubscribe") {
          handle_unsubscribe(args, std::move(done));
        } else if (method == "deliver") {
          handle_deliver(args, std::move(done));
        } else {
          done(unimplemented("bridge method: " + method));
        }
      });
  if (!uri.is_ok()) return uri.status();
  return Status::ok();
}

// --- Subscriber side -------------------------------------------------------

void EventRouter::subscribe(const std::string& service,
                            const std::string& event, EventFn handler,
                            SubscribeDoneFn done) {
  subscribe(service, event, SubscribeOptions{}, std::move(handler),
            std::move(done));
}

void EventRouter::subscribe(const std::string& service,
                            const std::string& event,
                            const SubscribeOptions& opts, EventFn handler,
                            SubscribeDoneFn done) {
  const Pcm::ForeignRecord* source = pcm_.find_foreign(service);
  if (source == nullptr) {
    done(not_found("service " + service + " is not imported on " +
                   vsg_.island_name()));
    return;
  }
  if (source->service.interface.find_event(event) == nullptr) {
    done(not_found("service " + service + " declares no event " + event));
    return;
  }
  const Uri origin = bridge_uri_for(source->endpoint);
  const sim::Duration lease = clamp_lease(opts.lease);
  const ValueList args{
      Value(service), Value(event),
      Value(vsg_.exposure_uri(kBridgeService).to_string()),
      Value(static_cast<std::int64_t>(lease))};
  vsg_.call_remote(
      origin, kBridgeService, bridge_interface(), "subscribe", args,
      [this, service, event, origin, opts, handler = std::move(handler),
       done = std::move(done)](Result<Value> reply) mutable {
        if (!reply.is_ok()) {
          done(reply.status());
          return;
        }
        const Value& v = reply.value();
        if (!v.is_map() || !v.at("lease").is_string() ||
            !v.at("duration").is_int()) {
          done(protocol_error("bad subscribe reply from origin bridge"));
          return;
        }
        LocalSub ls;
        ls.id = v.at("lease").as_string();
        ls.service = service;
        ls.event = event;
        ls.handler = std::move(handler);
        ls.origin = origin;
        ls.lease = v.at("duration").as_int();
        ls.auto_renew = opts.auto_renew;
        const std::string id = ls.id;
        local_subs_[id] = std::move(ls);
        if (opts.auto_renew) arm_renew(id);
        done(id);
      });
}

void EventRouter::unsubscribe(const std::string& lease_id, DoneFn done) {
  auto it = local_subs_.find(lease_id);
  if (it == local_subs_.end()) {
    // Idempotent: the lease may have expired or already been cancelled;
    // either way the goal state — no subscription — holds.
    done(Status::ok());
    return;
  }
  if (it->second.renew_event != 0) {
    net_.scheduler().cancel(it->second.renew_event);
  }
  const Uri origin = it->second.origin;
  local_subs_.erase(it);
  vsg_.call_remote(origin, kBridgeService, bridge_interface(), "unsubscribe",
                   {Value(lease_id)},
                   [done = std::move(done)](Result<Value> r) {
                     // A remote "false" (unknown lease) is still success.
                     done(r.is_ok() ? Status::ok() : r.status());
                   });
}

void EventRouter::arm_renew(const std::string& id) {
  auto it = local_subs_.find(id);
  if (it == local_subs_.end()) return;
  it->second.renew_event =
      net_.scheduler().after(it->second.lease / 2, [this, id] {
        auto it = local_subs_.find(id);
        if (it == local_subs_.end()) return;
        it->second.renew_event = 0;
        const ValueList args{
            Value(id), Value(static_cast<std::int64_t>(it->second.lease))};
        vsg_.call_remote(
            it->second.origin, kBridgeService, bridge_interface(), "renew",
            args, [this, id](Result<Value> r) {
              auto it = local_subs_.find(id);
              if (it == local_subs_.end()) return;
              if (!r.is_ok() || !r.value().is_int()) {
                // The origin no longer knows the lease (expired or the
                // island restarted): drop the local record so handler
                // dispatch and dedupe bookkeeping stop.
                local_subs_.erase(it);
                return;
              }
              it->second.lease = r.value().as_int();
              arm_renew(id);
            });
      });
}

// --- Origin side -----------------------------------------------------------

void EventRouter::handle_subscribe(const ValueList& args,
                                   InvokeResultFn done) {
  if (args.size() != 4 || !args[0].is_string() || !args[1].is_string() ||
      !args[2].is_string() || !args[3].is_int()) {
    done(invalid_argument("subscribe(service, event, sink, lease)"));
    return;
  }
  auto sink = parse_uri(args[2].as_string());
  if (!sink.is_ok()) {
    done(sink.status());
    return;
  }
  const std::string& service = args[0].as_string();
  const std::string& event = args[1].as_string();
  // Native and framework-hosted services alike are in the PCM's
  // published set, and the VSG holds the interface they were exposed
  // with. Hosted services (observability and friends) have no native
  // source: their events arrive through on_native_event directly.
  const Pcm::PublishedRecord* published = pcm_.find_published(service);
  const InterfaceDesc* iface = vsg_.exposed_interface(service);
  if (published == nullptr || iface == nullptr) {
    done(not_found("no local service: " + service));
    return;
  }
  if (iface->find_event(event) == nullptr) {
    done(not_found("service " + service + " declares no event " + event));
    return;
  }
  if (!published->hosted) {
    auto watch = ensure_watch(service, *iface);
    if (!watch.is_ok()) {
      done(watch);
      return;
    }
  }
  Subscription sub;
  sub.id = vsg_.island_name() + "/esub-" + std::to_string(next_sub_++);
  sub.service = service;
  sub.event = event;
  sub.sink = std::move(sink).take();
  sub.lease = clamp_lease(args[3].as_int());
  const std::string id = sub.id;
  auto [it, inserted] = subs_.emplace(id, std::move(sub));
  arm_expiry(it->second);
  done(Value(ValueMap{
      {"lease", Value(id)},
      {"duration", Value(static_cast<std::int64_t>(it->second.lease))},
  }));
}

void EventRouter::handle_renew(const ValueList& args, InvokeResultFn done) {
  if (args.size() != 2 || !args[0].is_string() || !args[1].is_int()) {
    done(invalid_argument("renew(lease, duration)"));
    return;
  }
  auto it = subs_.find(args[0].as_string());
  if (it == subs_.end()) {
    done(not_found("no such lease: " + args[0].as_string()));
    return;
  }
  it->second.lease = clamp_lease(args[1].as_int());
  arm_expiry(it->second);
  done(Value(static_cast<std::int64_t>(it->second.lease)));
}

void EventRouter::handle_unsubscribe(const ValueList& args,
                                     InvokeResultFn done) {
  if (args.size() != 1 || !args[0].is_string()) {
    done(invalid_argument("unsubscribe(lease)"));
    return;
  }
  const std::string id = args[0].as_string();
  const bool existed = subs_.count(id) != 0;
  if (existed) drop_subscription(id);
  done(Value(existed));
}

void EventRouter::handle_deliver(const ValueList& args, InvokeResultFn done) {
  if (args.size() != 1 || !args[0].is_list()) {
    done(invalid_argument("deliver requires a batch list"));
    return;
  }
  std::int64_t acked = 0;
  for (const auto& item : args[0].as_list()) {
    if (!item.is_map()) continue;
    ++acked;  // ack = received; unknown leases still count as received
    const Value& sub_id = item.at("sub");
    if (!sub_id.is_string()) continue;
    auto it = local_subs_.find(sub_id.as_string());
    if (it == local_subs_.end()) continue;
    const auto seq = item.at("seq").is_int()
                         ? static_cast<std::uint64_t>(item.at("seq").as_int())
                         : 0;
    if (seq != 0 && seq <= it->second.last_seq) {
      // Batch re-sent after a lost ack (at-least-once): suppress the
      // duplicate so local handlers fire once per event.
      duplicates_dropped_.inc();
      continue;
    }
    if (seq != 0) it->second.last_seq = seq;
    // Service and event come from the lease, never from the item: a
    // peer holding one lease id must not speak for another service.
    // Copy them with the handler: it may unsubscribe and invalidate `it`.
    // The payload is borrowed from the caller's args, not the lease, so
    // it outlives an unsubscribe.
    const std::string service = it->second.service;
    const std::string event = it->second.event;
    auto handler = it->second.handler;
    const Value& payload = item.at("payload");
    events_delivered_.inc();
    adapter_.emit_event(service, event, payload);
    if (handler) handler(service, event, payload);
  }
  done(Value(acked));
}

void EventRouter::on_native_event(const std::string& service,
                                  const std::string& event,
                                  const Value& payload) {
  for (auto& [id, sub] : subs_) {
    if (sub.service != service || sub.event != event) continue;
    // The one copy of the payload this subscriber gets: the item goes on
    // the wire as built (keys in the map's sorted order).
    ValueMap item;
    item.reserve(3);
    item.emplace("payload", payload);
    item.emplace("seq", static_cast<std::int64_t>(sub.next_seq++));
    item.emplace("sub", sub.id);
    sub.queue.emplace_back(std::move(item));
    if (sub.queue.size() + sub.batch().size() > kMaxQueue) {
      // Bounded queue: drop the oldest *unsent* event. The batch is on
      // the wire (or awaiting its retry) and must survive for
      // at-least-once delivery.
      sub.queue.pop_front();
      events_dropped_.inc();
    }
    schedule_flush(sub);
  }
}

void EventRouter::arm_expiry(Subscription& sub) {
  auto& sched = net_.scheduler();
  if (sub.expiry_event != 0) sched.cancel(sub.expiry_event);
  sub.expiry_event =
      sched.after(sub.lease, [this, id = sub.id] { expire(id); });
}

void EventRouter::expire(const std::string& id) {
  auto it = subs_.find(id);
  if (it == subs_.end()) return;
  it->second.expiry_event = 0;
  leases_expired_.inc();
  drop_subscription(id);
}

void EventRouter::drop_subscription(const std::string& id) {
  auto it = subs_.find(id);
  if (it == subs_.end()) return;
  auto& sched = net_.scheduler();
  auto& sub = it->second;
  if (sub.expiry_event != 0) sched.cancel(sub.expiry_event);
  if (sub.flush_event != 0) sched.cancel(sub.flush_event);
  if (sub.retry_event != 0) sched.cancel(sub.retry_event);
  const std::string service = sub.service;
  subs_.erase(it);
  release_watch(service);
}

Status EventRouter::ensure_watch(const std::string& service,
                                 const InterfaceDesc& iface) {
  auto& watch = watches_[service];
  if (!watch.active) {
    auto status = adapter_.watch_events(
        LocalService{service, iface, {}},
        [this](const std::string& svc, const std::string& ev,
               const Value& payload) { on_native_event(svc, ev, payload); });
    if (!status.is_ok()) {
      if (watch.refs == 0) watches_.erase(service);
      return status;
    }
    watch.active = true;
  }
  ++watch.refs;
  return Status::ok();
}

void EventRouter::release_watch(const std::string& service) {
  auto it = watches_.find(service);
  if (it == watches_.end()) return;
  if (it->second.refs > 0) --it->second.refs;
  if (it->second.refs == 0) {
    if (it->second.active) adapter_.unwatch_events(service);
    watches_.erase(it);
  }
}

void EventRouter::schedule_flush(Subscription& sub) {
  // While a batch is on the wire or a retry timer is pending, new
  // events just queue; the ack/retry path continues the drain.
  if (sub.sending || sub.retry_event != 0) return;
  if (sub.queue.size() >= kMaxBatch) {
    if (sub.flush_event != 0) {
      net_.scheduler().cancel(sub.flush_event);
      sub.flush_event = 0;
    }
    flush(sub.id);
    return;
  }
  if (sub.flush_event == 0) {
    // Batch window: coalesce a burst into one deliver() call.
    sub.flush_event =
        net_.scheduler().after(kBatchWindow, [this, id = sub.id] {
          auto it = subs_.find(id);
          if (it == subs_.end()) return;
          it->second.flush_event = 0;
          flush(id);
        });
  }
}

void EventRouter::flush(const std::string& id) {
  auto it = subs_.find(id);
  if (it == subs_.end()) return;
  auto& sub = it->second;
  ValueList& batch = sub.batch();
  if (sub.sending || (sub.queue.empty() && batch.empty())) return;
  // A retry re-sends the failed batch, topped up from the queue.
  while (batch.size() < kMaxBatch && !sub.queue.empty()) {
    batch.push_back(std::move(sub.queue.front()));
    sub.queue.pop_front();
  }
  sub.sending = true;
  // The wire client renders the arguments before call_remote returns;
  // the batch itself stays put until its ack.
  vsg_.call_remote(
      sub.sink, kBridgeService, bridge_interface(), "deliver",
      sub.deliver_args,
      [this, id, start = net_.scheduler().now()](Result<Value> r) {
        delivery_latency_us_.observe(net_.scheduler().now() - start);
        auto it = subs_.find(id);
        if (it == subs_.end()) return;  // lease expired while in flight
        auto& sub = it->second;
        sub.sending = false;
        if (r.is_ok()) {
          events_routed_.inc(sub.batch().size());
          sub.batch().clear();  // capacity kept for the next batch
          batches_sent_.inc();
          sub.backoff = 0;
          if (!sub.queue.empty()) flush(id);
          return;
        }
        // Transient transport failure: the batch stays in place
        // (at-least-once) and is retried with exponential backoff.
        delivery_retries_.inc();
        sub.backoff = sub.backoff == 0
                          ? kRetryBase
                          : std::min(sub.backoff * 2, kRetryMax);
        sub.retry_event = net_.scheduler().after(sub.backoff, [this, id] {
          auto it = subs_.find(id);
          if (it == subs_.end()) return;
          it->second.retry_event = 0;
          flush(id);
        });
      });
}

sim::Duration EventRouter::clamp_lease(sim::Duration lease) {
  if (lease <= 0) return kDefaultLease;
  return std::min(lease, kMaxLease);
}

Uri EventRouter::bridge_uri_for(const Uri& service_endpoint) {
  Uri bridge = service_endpoint;
  bridge.path = service_endpoint.scheme == "hcmb"
                    ? std::string("/") + kBridgeService
                    : std::string("/vsg/") + kBridgeService;
  return bridge;
}

}  // namespace hcm::core
