// EventRouter: the cross-middleware event bridge. One router per
// island, riding the island's VSG. A client on any island subscribes
// to an event a service on any other island declares in its interface
// descriptor; the origin island hooks the native event source through
// its adapter and forwards events VSG-to-VSG with leases, bounded
// per-subscriber queues, burst batching, drop-oldest backpressure and
// at-least-once delivery (retry with exponential backoff on transient
// transport failure). The origin's router is the only record of who is
// subscribed: it holds every lease and its delivery state. Both sides
// resolve a service through their island's PCM: the subscriber takes
// the event list and the origin's bridge endpoint from the document the
// PCM imported, and the origin checks the service against the PCM's
// published set. Neither side asks the VSR.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "core/pcm.hpp"
#include "obs/metrics.hpp"

namespace hcm::core {

class EventRouter {
 public:
  // The bridge is exposed as a VSG service under this name. It is
  // deliberately NOT published to the VSR and NOT exported into any
  // native middleware — it is framework plumbing, not a home service.
  static constexpr const char* kBridgeService = "__events__";

  // Queueing, batching, lease and retry policy (docs/EVENTS.md).
  static constexpr std::size_t kMaxQueue = 64;  // per-subscriber bound
  static constexpr std::size_t kMaxBatch = 16;  // events per deliver() call
  static constexpr sim::Duration kBatchWindow = sim::milliseconds(10);
  static constexpr sim::Duration kDefaultLease = sim::seconds(60);
  static constexpr sim::Duration kMaxLease = sim::seconds(300);
  static constexpr sim::Duration kRetryBase = sim::milliseconds(100);
  static constexpr sim::Duration kRetryMax = sim::seconds(5);

  // `pcm` is the island's; it must outlive the router.
  EventRouter(net::Network& net, Pcm& pcm);
  ~EventRouter();
  EventRouter(const EventRouter&) = delete;
  EventRouter& operator=(const EventRouter&) = delete;

  // Exposes the bridge service on the island's VSG.
  [[nodiscard]] Status start();

  // --- Subscriber side ---------------------------------------------------
  using EventFn = std::function<void(const std::string& service,
                                     const std::string& event,
                                     const Value& payload)>;
  using SubscribeDoneFn = std::function<void(Result<std::string>)>;
  using DoneFn = std::function<void(const Status&)>;

  struct SubscribeOptions {
    sim::Duration lease = 0;  // 0 -> router default
    bool auto_renew = true;   // renew at half-lease until unsubscribed
  };

  // Subscribes this island to `event` of remote service `service`,
  // which the island's PCM must have imported (kNotFound until then).
  // On success `done` receives the lease id; events then reach
  // `handler` and are re-emitted natively through the adapter's
  // emit_event.
  void subscribe(const std::string& service, const std::string& event,
                 EventFn handler, SubscribeDoneFn done);
  void subscribe(const std::string& service, const std::string& event,
                 const SubscribeOptions& opts, EventFn handler,
                 SubscribeDoneFn done);
  // Cancels a subscription by lease id. Idempotent: unknown ids
  // succeed (the lease may simply have expired already).
  void unsubscribe(const std::string& lease_id, DoneFn done);

  // --- Origin side -------------------------------------------------------
  // Injects a native event from this island's middleware into the
  // bridge (adapters call this through the watch_events callback).
  void on_native_event(const std::string& service, const std::string& event,
                       const Value& payload);

  // --- Introspection / counters ------------------------------------------
  [[nodiscard]] std::size_t active_subscriptions() const {
    return subs_.size();
  }
  [[nodiscard]] std::size_t local_subscriptions() const {
    return local_subs_.size();
  }
  [[nodiscard]] std::uint64_t events_routed() const {
    return events_routed_.value();
  }
  [[nodiscard]] std::uint64_t events_dropped() const {
    return events_dropped_.value();
  }
  [[nodiscard]] std::uint64_t events_delivered() const {
    return events_delivered_.value();
  }
  [[nodiscard]] std::uint64_t batches_sent() const {
    return batches_sent_.value();
  }
  [[nodiscard]] std::uint64_t leases_expired() const {
    return leases_expired_.value();
  }
  [[nodiscard]] std::uint64_t delivery_retries() const {
    return delivery_retries_.value();
  }
  [[nodiscard]] std::uint64_t duplicates_dropped() const {
    return duplicates_dropped_.value();
  }

  // Wire interface of the bridge (subscribe/renew/unsubscribe/deliver).
  // A deliver batch item is {sub, seq, payload}: the lease fixes the
  // service and event, so the item does not repeat them.
  [[nodiscard]] static const InterfaceDesc& bridge_interface();

 private:
  // Origin-side record of one remote subscriber's lease. Each event is
  // built once, as the finished deliver item {payload, seq, sub}, and
  // moves from the queue into the batch: the items on the wire (or
  // awaiting a retry) stay in the batch until their ack.
  struct Subscription {
    std::string id;
    std::string service;
    std::string event;
    Uri sink;                // subscriber's bridge exposure
    sim::Duration lease = 0;
    sim::EventId expiry_event = 0;
    std::deque<Value> queue;  // unsent items, oldest first
    // deliver's argument list; its one element is the batch list.
    ValueList deliver_args = ValueList(1, Value(ValueList()));
    std::uint64_t next_seq = 1;
    sim::EventId flush_event = 0;
    sim::EventId retry_event = 0;
    sim::Duration backoff = 0;
    bool sending = false;

    ValueList& batch() { return deliver_args.front().as_list(); }
  };

  // Subscriber-side record of a lease we hold on a remote service.
  struct LocalSub {
    std::string id;
    std::string service;
    std::string event;
    EventFn handler;
    Uri origin;  // origin island's bridge exposure
    sim::Duration lease = 0;
    bool auto_renew = true;
    sim::EventId renew_event = 0;
    std::uint64_t last_seq = 0;  // at-least-once: dedupe re-sent batches
  };

  struct Watch {
    std::size_t refs = 0;
    bool active = false;
  };

  // Wire handlers (origin side unless noted).
  void handle_subscribe(const ValueList& args, InvokeResultFn done);
  void handle_renew(const ValueList& args, InvokeResultFn done);
  void handle_unsubscribe(const ValueList& args, InvokeResultFn done);
  void handle_deliver(const ValueList& args, InvokeResultFn done);  // sub side

  void arm_expiry(Subscription& sub);
  void expire(const std::string& id);
  void drop_subscription(const std::string& id);
  [[nodiscard]] Status ensure_watch(const std::string& service,
                                    const InterfaceDesc& iface);
  void release_watch(const std::string& service);

  void schedule_flush(Subscription& sub);
  void flush(const std::string& id);

  void arm_renew(const std::string& id);
  [[nodiscard]] static sim::Duration clamp_lease(sim::Duration lease);
  [[nodiscard]] static Uri bridge_uri_for(const Uri& service_endpoint);

  net::Network& net_;
  Pcm& pcm_;
  VirtualServiceGateway& vsg_;
  MiddlewareAdapter& adapter_;

  std::map<std::string, Subscription> subs_;     // origin side, by lease id
  // Subscriber side, by id (transparent: deliver looks ids up in place).
  std::map<std::string, LocalSub, std::less<>> local_subs_;
  std::map<std::string, Watch> watches_;         // origin, by service name
  std::uint64_t next_sub_ = 1;

  std::string obs_scope_;
  obs::Counter& events_routed_;
  obs::Counter& events_dropped_;
  obs::Counter& events_delivered_;
  obs::Counter& batches_sent_;
  obs::Counter& leases_expired_;
  obs::Counter& delivery_retries_;
  obs::Counter& duplicates_dropped_;
  obs::Histogram& delivery_latency_us_;
};

}  // namespace hcm::core
