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
  void post(const std::string& event, const Value& payload);

 private:
  MessagingSystem& ms_;
  Seid self_;
  Seid em_;
};

}  // namespace hcm::havi
