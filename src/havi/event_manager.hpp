// HAVi Event Manager: bus-wide publish/subscribe. System events
// (NetworkReset, and the Registry's NewSoftwareElement and
// GoneSoftwareElement) and application events (e.g. a VCR's transport
// state change) are posted here and fanned out to subscribed software
// elements as notification messages with op "event" and args
// [event_name, payload].
#pragma once

#include <map>
#include <set>
#include <string>

#include "havi/messaging.hpp"
#include "net/ieee1394.hpp"

namespace hcm::havi {

inline constexpr const char* kEventNetworkReset = "NetworkReset";
// Registry changes (see havi::Registry).
inline constexpr const char* kEventNewSoftwareElement = "NewSoftwareElement";
inline constexpr const char* kEventGoneSoftwareElement = "GoneSoftwareElement";

class EventManager {
 public:
  EventManager(MessagingSystem& ms, net::Ieee1394Bus& bus);

  [[nodiscard]] Seid seid() const { return seid_; }

 private:
  void handle(const std::string& op, const ValueList& args,
              InvokeResultFn done);
  void fan_out(const std::string& event, const Value& payload);

  MessagingSystem& ms_;
  Seid seid_;
  std::map<std::string, std::set<Seid>> subscribers_;
  // fan_out's notification args [event, payload], rewritten in place
  // per event; every send copies or encodes them before returning, and
  // a payload string over kMaxRetainedString is freed after the fan-out.
  ValueList notify_args_ = ValueList(2);
};

// Client helper for subscribing and posting.
class EventClient {
 public:
  EventClient(MessagingSystem& ms, Seid self, Seid event_manager)
      : ms_(ms), self_(self), em_(event_manager) {}

  void subscribe(const std::string& event,
                 std::function<void(const Status&)> done);
  void unsubscribe(const std::string& event,
                   std::function<void(const Status&)> done);
  // Posts the postEvent argument list [event, payload]. A poster that
  // keeps the list per topic assigns each payload into it; the list is
  // copied or encoded before this returns.
  void post(const ValueList& event_and_payload);

 private:
  MessagingSystem& ms_;
  Seid self_;
  Seid em_;
};

}  // namespace hcm::havi
