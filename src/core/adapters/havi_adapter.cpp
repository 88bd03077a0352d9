#include "core/adapters/havi_adapter.hpp"

#include "common/join.hpp"

namespace hcm::core {

namespace {
// The Registry topics the feed subscribes to.
constexpr const char* kFeedTopics[] = {havi::kEventNewSoftwareElement,
                                       havi::kEventGoneSoftwareElement,
                                       havi::kEventNetworkReset};
}  // namespace

HaviAdapter::HaviAdapter(havi::MessagingSystem& ms, havi::Seid registry)
    : ms_(ms),
      self_(ms.register_element([this](const std::string& op,
                                       const ValueList& args,
                                       InvokeResultFn done) {
        handle_self(op, args, std::move(done));
      })),
      registry_(ms, self_, registry),
      em_seid_(havi::Seid{registry.node, havi::kEventManagerHandle}) {}

HaviAdapter::~HaviAdapter() {
  alive_.reset();
  if (subscribed_ || !feed_.down()) {  // subscribed, or subscribing
    havi::EventClient events(ms_, self_, em_seid_);
    for (const char* topic : kFeedTopics) {
      events.unsubscribe(topic, [](const Status&) {});
    }
  }
  ms_.unregister_element(self_);
}

void HaviAdapter::handle_self(const std::string& op, const ValueList& args,
                              InvokeResultFn done) {
  // Event Manager notifications arrive as op "event" with
  // args [topic, payload]: the feed's Registry topics, or
  // "<service>.<event>" for watched services.
  if (op == "event" && args.size() == 2 && args[0].is_string()) {
    const std::string& topic = args[0].as_string();
    if (topic == havi::kEventNewSoftwareElement ||
        topic == havi::kEventGoneSoftwareElement) {
      on_registry_event(args);
    } else if (topic == havi::kEventNetworkReset) {
      feed_gap();  // the bus re-enumerated: re-list on the next listing
    } else if (auto dot = topic.find('.'); dot != std::string::npos) {
      auto it = watches_.find(std::string_view(topic).substr(0, dot));
      if (it != watches_.end() && it->second.fn) {
        for (const auto& t : it->second.topics) {
          if (t.topic != topic) continue;
          it->second.fn(it->first, t.event, args[1]);
          break;
        }
      }
    }
    done(Value());
    return;
  }
  done(unimplemented("PCM adapter SE takes no calls"));
}

void HaviAdapter::list_services(ServicesFn done) {
  if (feed_.live()) {
    answer(std::move(done));
    check_feed();
  } else if (feed_.wait(std::move(done))) {
    resync();
  }
}

// Registry events cross the bus one-way, and a lost one with no later
// one behind it shows no gap. At most once per kCheckPeriod a listing
// also asks the Registry for its change number; a number ahead of the
// set marks a gap, and the next listing re-lists.
void HaviAdapter::check_feed() {
  const sim::SimTime now = ms_.network().scheduler().now();
  if (now < next_check_) return;
  next_check_ = now + ChangeFeed::kCheckPeriod;
  registry_.change_number([this, alive = std::weak_ptr<bool>(alive_)](
                              Result<std::uint64_t> seq) {
    if (alive.expired() || !seq.is_ok()) return;
    if (feed_.behind(seq.value())) feed_gap();
  });
}

void HaviAdapter::answer(ServicesFn done) {
  std::vector<LocalService> services;
  services.reserve(fcms_.size());
  for (const auto& [seid, fcm] : fcms_) {
    if (!fcm.imported) services.push_back(fcm.service);
  }
  ms_.network().scheduler().after(0, [services = std::move(services),
                                      done = std::move(done)]() mutable {
    done(std::move(services));
  });
}

void HaviAdapter::resync() {
  const std::uint64_t gen = feed_.begin_sync();
  if (subscribed_) {
    relist(gen);
    return;
  }
  // First contact: subscribe to the Registry's changes, then list.
  Join subscribed(std::size(kFeedTopics),
                  [this, gen, alive = std::weak_ptr<bool>(alive_)](
                      const Status& s) {
                    if (alive.expired() || feed_.stale(gen)) return;
                    if (!s.is_ok()) {
                      fail_sync(s);
                      return;
                    }
                    subscribed_ = true;
                    relist(gen);
                  });
  havi::EventClient events(ms_, self_, em_seid_);
  for (const char* topic : kFeedTopics) events.subscribe(topic, subscribed);
}

void HaviAdapter::relist(std::uint64_t gen) {
  ++relists_;
  registry_.get_elements(
      ValueMap{{havi::kAttrSeType, Value("FCM")}},
      [this, gen, alive = std::weak_ptr<bool>(alive_)](
          Result<havi::RegistryListing> listing) {
        if (alive.expired() || feed_.stale(gen)) return;
        if (!listing.is_ok()) {
          fail_sync(listing.status());
          return;
        }
        fcms_.clear();
        known_.clear();
        for (auto& record : listing.value().records) {
          add_fcm(record.seid, std::move(record.attributes));
        }
        next_check_ =
            ms_.network().scheduler().now() + ChangeFeed::kCheckPeriod;
        for (const auto& args : feed_.go_live(listing.value().seq)) {
          on_registry_event(args);
        }
        for (auto& done : feed_.take_waiting()) answer(std::move(done));
      });
}

void HaviAdapter::fail_sync(const Status& status) {
  (void)feed_.gap();
  for (auto& done : feed_.take_waiting()) done(status);
}

// args: [NewSoftwareElement {seq, seid, attrs} | GoneSoftwareElement
// {seq, seid}].
void HaviAdapter::on_registry_event(const ValueList& args) {
  const Value& change = args[1];
  if (!change.at("seq").is_int()) return;
  switch (feed_.admit(static_cast<std::uint64_t>(change.at("seq").as_int()),
                      args)) {
    case ChangeFeed::Verdict::kApply:
      break;
    case ChangeFeed::Verdict::kGap:
      feed_gap();  // a change went missing
      return;
    default:
      return;
  }
  auto seid = havi::Seid::from_value(change.at("seid"));
  if (!seid.is_ok()) {
    feed_gap();
    return;
  }
  remove_fcm(seid.value());
  const Value& attrs = change.at("attrs");
  if (args[0].as_string() != havi::kEventNewSoftwareElement ||
      !attrs.is_map()) {
    return;
  }
  auto type = attrs.as_map().find(havi::kAttrSeType);
  if (type != attrs.as_map().end() && type->second == Value("FCM")) {
    add_fcm(seid.value(), attrs.as_map());
  }
}

void HaviAdapter::add_fcm(const havi::Seid& seid, ValueMap attrs) {
  auto name_it = attrs.find(havi::kAttrName);
  auto iface_it = attrs.find(havi::kAttrInterface);
  if (name_it == attrs.end() || iface_it == attrs.end() ||
      !name_it->second.is_string()) {
    return;  // FCM without framework-usable description
  }
  Fcm fcm;
  fcm.service.name = name_it->second.as_string();
  // Server proxies are skipped before their interface is decoded.
  auto imported = attrs.find("hcm.imported");
  fcm.imported = imported != attrs.end() && imported->second == Value(true);
  if (!fcm.imported) {
    auto iface = interface_from_value(iface_it->second);
    if (!iface.is_ok()) return;
    fcm.service.interface = std::move(iface).take();
    fcm.service.attributes = std::move(attrs);
  }
  auto [pos, inserted] = known_.emplace(fcm.service.name, seid);
  if (!inserted && pos->second < seid) pos->second = seid;
  fcms_.insert_or_assign(seid, std::move(fcm));
}

void HaviAdapter::remove_fcm(const havi::Seid& seid) {
  auto it = fcms_.find(seid);
  if (it == fcms_.end()) return;
  const std::string name = std::move(it->second.service.name);
  fcms_.erase(it);
  auto pos = known_.find(name);
  if (pos == known_.end() || !(pos->second == seid)) return;
  known_.erase(pos);
  for (const auto& [other, fcm] : fcms_) {
    if (fcm.service.name == name) known_[name] = other;
  }
}

void HaviAdapter::feed_gap() {
  if (feed_.gap()) resync();  // listings in flight start over
}

void HaviAdapter::invoke(const std::string& service_name,
                         const std::string& method, const ValueList& args,
                         InvokeResultFn done) {
  obs::ScopedInvoke obs_invoke(ms_.network().scheduler(), invoke_metrics_,
                               service_name, method);
  done = obs_invoke.wrap(std::move(done));
  // Server proxies exported by this adapter dispatch directly (their
  // registry record may still be in flight).
  if (auto exported = exported_.find(service_name);
      exported != exported_.end()) {
    exported->second.handler(method, args, std::move(done));
    return;
  }
  auto it = known_.find(service_name);
  if (it != known_.end()) {
    ms_.send_request(self_, it->second, method, args, std::move(done));
    return;
  }
  done(not_found("no HAVi FCM: " + service_name));
}

Status HaviAdapter::export_service(const LocalService& service,
                                   ServiceHandler handler) {
  if (exported_.count(service.name) != 0) {
    return already_exists("already exported to HAVi: " + service.name);
  }
  // The server proxy is a plain software element whose handler is the
  // generated forwarder.
  havi::Seid seid = ms_.register_element(handler);
  ValueMap attrs{
      {havi::kAttrSeType, Value("FCM")},
      {havi::kAttrDeviceClass, Value("REMOTE")},
      {havi::kAttrName, Value(service.name)},
      {havi::kAttrInterface, interface_to_value(service.interface)},
      {"hcm.imported", Value(true)},
  };
  registry_.register_element(seid, attrs, [](const Status&) {});
  exported_[service.name] = Exported{seid, std::move(handler)};
  return Status::ok();
}

void HaviAdapter::unexport_service(const std::string& name) {
  auto it = exported_.find(name);
  if (it == exported_.end()) return;
  registry_.unregister_element(it->second.seid, [](const Status&) {});
  ms_.unregister_element(it->second.seid);
  exported_.erase(it);
}

Status HaviAdapter::watch_events(const LocalService& service,
                                 AdapterEventFn on_event) {
  if (watches_.count(service.name) != 0) return Status::ok();
  if (service.interface.events.empty()) {
    return unimplemented("HAVi FCM " + service.name + " declares no events");
  }
  Watch watch;
  watch.fn = std::move(on_event);
  havi::EventClient events(ms_, self_, em_seid_);
  for (const auto& ev : service.interface.events) {
    Watch::Topic& t =
        watch.topics.emplace_back(service.name + "." + ev.name, ev.name);
    events.subscribe(t.topic, [](const Status&) {});
  }
  watches_[service.name] = std::move(watch);
  return Status::ok();
}

void HaviAdapter::unwatch_events(const std::string& service_name) {
  auto it = watches_.find(service_name);
  if (it == watches_.end()) return;
  havi::EventClient events(ms_, self_, em_seid_);
  for (const auto& t : it->second.topics) {
    events.unsubscribe(t.topic, [](const Status&) {});
  }
  watches_.erase(it);
}

void HaviAdapter::emit_event(const std::string& service_name,
                             const std::string& event, const Value& payload) {
  // Posting through the Event Manager lets native HAVi subscribers of
  // the exported server proxy receive the remote event. The topic and
  // payload are written into the list the previous post left, and a
  // large payload string is freed once posted.
  std::string& topic = emit_args_[0].slot<std::string>();
  topic.assign(service_name);
  topic += '.';
  topic += event;
  emit_args_[1] = payload;
  havi::EventClient(ms_, self_, em_seid_).post(emit_args_);
  trim_for_reuse(emit_args_[1]);
}

}  // namespace hcm::core
