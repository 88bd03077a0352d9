// DCM (Device Control Module): represents one physical 1394 device and
// owns its FCMs. Announcing a DCM registers the DCM record plus every
// FCM in the bus Registry — the unit of device arrival in HAVi.
#pragma once

#include <memory>
#include <vector>

#include "havi/event_manager.hpp"
#include "havi/fcm.hpp"
#include "havi/stream_manager.hpp"

namespace hcm::havi {

class Dcm {
 public:
  Dcm(MessagingSystem& ms, std::string huid, std::string name);
  ~Dcm();
  Dcm(const Dcm&) = delete;
  Dcm& operator=(const Dcm&) = delete;

  [[nodiscard]] Seid seid() const { return seid_; }

  // Takes ownership of an FCM belonging to this device.
  Fcm& add_fcm(std::unique_ptr<Fcm> fcm);

  // Registers the DCM and all its FCMs. `done` fires once everything
  // is registered (or with the first error).
  void announce(RegistryClient& rc, std::function<void(const Status&)> done);

 private:
  MessagingSystem& ms_;
  std::string huid_;
  std::string name_;
  Seid seid_;
  std::vector<std::unique_ptr<Fcm>> fcms_;
};

// Convenience bundle for the FAV controller node: messaging plus the
// three system software elements every HAVi bus needs. Construction
// starts messaging and mounts Registry, Event Manager and Stream
// Manager at their well-known handles.
struct FavController {
  FavController(net::Network& net, net::NodeId node, net::Ieee1394Bus& bus)
      : messaging(net, node),
        registry(messaging, bus),
        event_manager(messaging, bus),
        stream_manager(messaging, bus) {
    (void)messaging.start();
  }

  MessagingSystem messaging;
  Registry registry;
  EventManager event_manager;
  StreamManager stream_manager;
};

}  // namespace hcm::havi
