// The concrete AV FCMs the paper's applications exercise: VCR (the
// automatic-recording scenario), DV camera (the Universal Remote
// Controller photo shows one), display, and tuner. AV data moves as
// simulated DV frames over 1394 isochronous channels at ~30 fps.
#pragma once

#include <deque>
#include <optional>

#include "havi/event_manager.hpp"
#include "havi/fcm.hpp"

namespace hcm::havi {

// One simulated DV frame every 33 ms.
constexpr sim::Duration kFramePeriod = sim::milliseconds(33);
constexpr std::size_t kFrameBytes = 4096;

// --- VCR ---------------------------------------------------------------

enum class TransportState { kStop, kPlay, kRecord, kPause };
const char* to_string(TransportState s);

// Interface "VcrControl": play/stop/pause/record/getTransportState/
// getCounter/getTapeFrames.
class VcrFcm : public Fcm {
 public:
  VcrFcm(MessagingSystem& ms, net::Ieee1394Bus& bus, std::string huid,
         std::string name);
  ~VcrFcm() override;

  static InterfaceDesc describe_interface();

  [[nodiscard]] TransportState state() const { return state_; }
  [[nodiscard]] std::uint64_t tape_frames() const { return tape_frames_; }

  // Posts "<name>.transportChanged" to the bus Event Manager on every
  // transport-state change once an EM SEID is wired in.
  void set_event_manager(Seid event_manager);

 protected:
  void invoke(const std::string& method, const ValueList& args,
              InvokeResultFn done) override;
  Status on_connect_source(net::IsoChannel ch) override;
  Status on_connect_sink(net::IsoChannel ch) override;
  void on_disconnect() override;

 private:
  void set_state(TransportState s);
  void tick();

  net::Ieee1394Bus& bus_;
  TransportState state_ = TransportState::kStop;
  std::uint64_t tape_frames_ = 0;     // frames on the tape
  std::uint64_t play_position_ = 0;   // frames played back so far
  std::optional<net::IsoChannel> source_channel_;
  std::optional<net::IsoChannel> sink_channel_;
  net::IsoListenerId sink_listener_ = 0;
  sim::EventId tick_event_ = 0;
  std::optional<sim::SimTime> record_deadline_;
  std::optional<EventClient> events_;
};

// --- DV camera -----------------------------------------------------------

// Interface "CameraControl": startCapture/stopCapture/zoom/getStatus.
class DvCameraFcm : public Fcm {
 public:
  DvCameraFcm(MessagingSystem& ms, net::Ieee1394Bus& bus, std::string huid,
              std::string name);
  ~DvCameraFcm() override;

  static InterfaceDesc describe_interface();

  [[nodiscard]] bool capturing() const { return capturing_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }

 protected:
  void invoke(const std::string& method, const ValueList& args,
              InvokeResultFn done) override;
  Status on_connect_source(net::IsoChannel ch) override;
  void on_disconnect() override;

 private:
  void tick();

  net::Ieee1394Bus& bus_;
  bool capturing_ = false;
  std::int64_t zoom_ = 1;
  std::uint64_t frames_sent_ = 0;
  std::optional<net::IsoChannel> channel_;
  sim::EventId tick_event_ = 0;
};

// --- Display -------------------------------------------------------------

// Interface "DisplayControl": powerOn/powerOff/selectInput/getStatus.
class DisplayFcm : public Fcm {
 public:
  DisplayFcm(MessagingSystem& ms, net::Ieee1394Bus& bus, std::string huid,
             std::string name);
  ~DisplayFcm() override;

  static InterfaceDesc describe_interface();

  [[nodiscard]] std::uint64_t frames_shown() const { return frames_shown_; }

 protected:
  void invoke(const std::string& method, const ValueList& args,
              InvokeResultFn done) override;
  Status on_connect_sink(net::IsoChannel ch) override;
  void on_disconnect() override;

 private:
  net::Ieee1394Bus& bus_;
  bool powered_ = false;
  std::string input_ = "1394";
  std::uint64_t frames_shown_ = 0;
  std::optional<net::IsoChannel> channel_;
  net::IsoListenerId listener_ = 0;
};

// --- Tuner ---------------------------------------------------------------

// Interface "TunerControl": setChannel/getChannel.
class TunerFcm : public Fcm {
 public:
  TunerFcm(MessagingSystem& ms, net::Ieee1394Bus& bus, std::string huid,
           std::string name);
  ~TunerFcm() override;

  static InterfaceDesc describe_interface();

  [[nodiscard]] std::int64_t channel() const { return tuned_channel_; }

 protected:
  void invoke(const std::string& method, const ValueList& args,
              InvokeResultFn done) override;
  Status on_connect_source(net::IsoChannel ch) override;
  void on_disconnect() override;

 private:
  void tick();

  net::Ieee1394Bus& bus_;
  std::int64_t tuned_channel_ = 1;
  std::uint64_t frames_sent_ = 0;
  std::optional<net::IsoChannel> iso_channel_;
  sim::EventId tick_event_ = 0;
};

}  // namespace hcm::havi
