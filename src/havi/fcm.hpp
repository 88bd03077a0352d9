// FCM (Functional Component Module) base: one controllable function of a
// device (VCR transport, camera, display, tuner). An FCM is a software
// element with a typed interface; the Stream Manager additionally
// drives AV FCMs through reserved "sm.*" ops.
#pragma once

#include <string>

#include "havi/messaging.hpp"
#include "havi/registry.hpp"
#include "net/ieee1394.hpp"

namespace hcm::havi {

class Fcm {
 public:
  Fcm(MessagingSystem& ms, std::string device_class, std::string huid,
      std::string name, InterfaceDesc iface);
  virtual ~Fcm();
  Fcm(const Fcm&) = delete;
  Fcm& operator=(const Fcm&) = delete;

  [[nodiscard]] Seid seid() const { return seid_; }
  [[nodiscard]] const InterfaceDesc& interface() const { return iface_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // Registry attributes describing this FCM.
  [[nodiscard]] ValueMap attributes() const;

  // Registers this FCM in the bus Registry.
  void announce(RegistryClient& rc, std::function<void(const Status&)> done);

 protected:
  // Application method dispatch (args already validated against the
  // interface when called through a generated proxy; FCMs re-validate).
  virtual void invoke(const std::string& method, const ValueList& args,
                      InvokeResultFn done) = 0;

  // Stream-manager hooks; non-AV FCMs keep the defaults.
  virtual Status on_connect_source(net::IsoChannel) {
    return unimplemented(name_ + " is not a stream source");
  }
  virtual Status on_connect_sink(net::IsoChannel) {
    return unimplemented(name_ + " is not a stream sink");
  }
  virtual void on_disconnect() {}

  [[nodiscard]] MessagingSystem& messaging() { return ms_; }
  [[nodiscard]] sim::Scheduler& scheduler();

 private:
  void handle(const std::string& op, const ValueList& args,
              InvokeResultFn done);

  MessagingSystem& ms_;
  std::string device_class_;
  std::string huid_;
  std::string name_;
  InterfaceDesc iface_;
  Seid seid_;
};

}  // namespace hcm::havi
