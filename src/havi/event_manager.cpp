#include "havi/event_manager.hpp"

namespace hcm::havi {

EventManager::EventManager(MessagingSystem& ms, net::Ieee1394Bus& bus)
    : ms_(ms) {
  auto seid = ms_.register_system_element(
      kEventManagerHandle,
      [this](const std::string& op, const ValueList& args,
             InvokeResultFn done) { handle(op, args, done); });
  seid_ = seid.is_ok() ? seid.value() : Seid{};
  bus.subscribe_reset(ms_.node(), [this](std::uint32_t generation) {
    fan_out(kEventNetworkReset, Value(static_cast<std::int64_t>(generation)));
  });
}

void EventManager::handle(const std::string& op, const ValueList& args,
                          InvokeResultFn done) {
  if (op == "subscribe" || op == "unsubscribe") {
    if (args.size() != 2 || !args[1].is_string()) {
      return done(invalid_argument(op + "(seid, event)"));
    }
    auto seid = Seid::from_value(args[0]);
    if (!seid.is_ok()) return done(seid.status());
    if (op == "subscribe") {
      subscribers_[args[1].as_string()].insert(seid.value());
    } else {
      subscribers_[args[1].as_string()].erase(seid.value());
    }
    return done(Value(true));
  }
  if (op == "postEvent") {
    if (args.size() != 2 || !args[0].is_string()) {
      return done(invalid_argument("postEvent(event, payload)"));
    }
    fan_out(args[0].as_string(), args[1]);
    return done(Value(true));
  }
  done(not_found("event manager has no op " + op));
}

void EventManager::fan_out(const std::string& event, const Value& payload) {
  auto it = subscribers_.find(event);
  if (it == subscribers_.end()) return;
  notify_args_[0].slot<std::string>().assign(event);
  notify_args_[1] = payload;
  for (const Seid& sub : it->second) {
    ms_.send_notification(seid_, sub, "event", notify_args_);
  }
  trim_for_reuse(notify_args_[1]);  // no large payload stays resident
}

void EventClient::subscribe(const std::string& event,
                            std::function<void(const Status&)> done) {
  ms_.send_request(self_, em_, "subscribe", {self_.to_value(), Value(event)},
                   [done = std::move(done)](Result<Value> r) {
                     done(r.is_ok() ? Status::ok() : r.status());
                   });
}

void EventClient::unsubscribe(const std::string& event,
                              std::function<void(const Status&)> done) {
  ms_.send_request(self_, em_, "unsubscribe",
                   {self_.to_value(), Value(event)},
                   [done = std::move(done)](Result<Value> r) {
                     done(r.is_ok() ? Status::ok() : r.status());
                   });
}

void EventClient::post(const ValueList& event_and_payload) {
  ms_.send_request(self_, em_, "postEvent", event_and_payload,
                   [](Result<Value>) {});
}

}  // namespace hcm::havi
