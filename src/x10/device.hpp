// X10 receiver modules: appliance modules (relay on/off) and lamp
// modules (on/off/dim/bright), plus the transmitting devices the
// paper's applications use: motion sensors and hand-held remotes.
#pragma once

#include <functional>

#include "net/network.hpp"
#include "net/powerline.hpp"
#include "x10/codec.hpp"

namespace hcm::x10 {

// Base receiver: decodes address/function frames and maintains the X10
// selection discipline (an address frame selects the unit; a matching
// function frame executes on selected units).
class ReceiverModule {
 public:
  ReceiverModule(net::Network& net, net::NodeId node,
                 net::PowerlineSegment& powerline, HouseCode house, int unit);
  virtual ~ReceiverModule();
  ReceiverModule(const ReceiverModule&) = delete;
  ReceiverModule& operator=(const ReceiverModule&) = delete;

  [[nodiscard]] int unit() const { return unit_; }
  [[nodiscard]] std::string address() const {
    return format_address(house_, unit_);
  }

 protected:
  virtual void on_function(FunctionCode function, int dims) = 0;
  [[nodiscard]] net::Network& network() { return net_; }

 private:
  void on_powerline(const Bytes& frame);

  net::Network& net_;
  net::NodeId node_;
  net::PowerlineSegment& powerline_;
  HouseCode house_;
  int unit_;
  bool selected_ = false;
};

// Relay module: on/off only (e.g. a fan or coffee maker).
class ApplianceModule : public ReceiverModule {
 public:
  using ReceiverModule::ReceiverModule;

  [[nodiscard]] bool is_on() const { return on_; }
  using ChangeFn = std::function<void(bool on)>;
  void set_on_change(ChangeFn fn) { on_change_ = std::move(fn); }

 protected:
  void on_function(FunctionCode function, int dims) override;

 private:
  bool on_ = false;
  ChangeFn on_change_;
};

// Lamp module: on/off plus 22-step dimming.
class LampModule : public ReceiverModule {
 public:
  using ReceiverModule::ReceiverModule;

  [[nodiscard]] bool is_on() const { return level_ > 0; }
  // Brightness 0..100.
  [[nodiscard]] int level() const { return level_; }
  using ChangeFn = std::function<void(int level)>;
  void set_on_change(ChangeFn fn) { on_change_ = std::move(fn); }

  static constexpr int kDimStepPercent = 100 / 22 + 1;  // ~5% per dim step

 protected:
  void on_function(FunctionCode function, int dims) override;

 private:
  void set_level(int level);

  int level_ = 0;
  ChangeFn on_change_;
};

// Motion sensor: a transmitter. trigger() puts <addr> ON on the line
// and schedules an automatic OFF after `auto_off`.
class MotionSensor {
 public:
  MotionSensor(net::Network& net, net::NodeId node,
               net::PowerlineSegment& powerline, HouseCode house, int unit,
               sim::Duration auto_off = sim::seconds(30));

  void trigger();
  [[nodiscard]] std::uint64_t triggers() const { return triggers_; }

 private:
  void transmit(FunctionCode function);

  net::Network& net_;
  net::NodeId node_;
  net::PowerlineSegment& powerline_;
  HouseCode house_;
  int unit_;
  sim::Duration auto_off_;
  sim::EventId off_event_ = 0;
  std::uint64_t triggers_ = 0;
};

// Hand-held remote (via an RF transceiver module): presses become
// powerline commands. This is the input device of the paper's
// Universal Remote Controller application (Fig. 5).
class RemoteControl {
 public:
  RemoteControl(net::Network& net, net::NodeId node,
                net::PowerlineSegment& powerline, HouseCode house)
      : net_(net), node_(node), powerline_(powerline), house_(house) {}

  using DoneFn = std::function<void(const Status&)>;
  void press(int unit, FunctionCode function, DoneFn done = nullptr);

 private:
  net::Network& net_;
  net::NodeId node_;
  net::PowerlineSegment& powerline_;
  HouseCode house_;
};

}  // namespace hcm::x10
