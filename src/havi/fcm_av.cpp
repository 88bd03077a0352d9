#include "havi/fcm_av.hpp"

namespace hcm::havi {

const char* to_string(TransportState s) {
  switch (s) {
    case TransportState::kStop: return "STOP";
    case TransportState::kPlay: return "PLAY";
    case TransportState::kRecord: return "RECORD";
    case TransportState::kPause: return "PAUSE";
  }
  return "?";
}

// --- VCR ---------------------------------------------------------------

InterfaceDesc VcrFcm::describe_interface() {
  InterfaceDesc iface{
      "VcrControl",
      {
          MethodDesc{"play", {}, ValueType::kBool, false},
          MethodDesc{"stop", {}, ValueType::kBool, false},
          MethodDesc{"pause", {}, ValueType::kBool, false},
          MethodDesc{"record",
                     {{"durationMinutes", ValueType::kInt}},
                     ValueType::kBool,
                     false},
          MethodDesc{"getTransportState", {}, ValueType::kString, false},
          MethodDesc{"getCounter", {}, ValueType::kInt, false},
          MethodDesc{"getTapeFrames", {}, ValueType::kInt, false},
      }};
  iface.events.push_back(MethodDesc{
      "transportChanged", {{"state", ValueType::kString}}, ValueType::kNull,
      true});
  return iface;
}

VcrFcm::VcrFcm(MessagingSystem& ms, net::Ieee1394Bus& bus, std::string huid,
               std::string name)
    : Fcm(ms, "VCR", std::move(huid), std::move(name), describe_interface()),
      bus_(bus) {}

VcrFcm::~VcrFcm() {
  if (tick_event_ != 0) scheduler().cancel(tick_event_);
}

void VcrFcm::invoke(const std::string& method, const ValueList& args,
                    InvokeResultFn done) {
  if (method == "play") {
    if (tape_frames_ == 0) return done(unavailable("tape is empty"));
    play_position_ = 0;
    set_state(TransportState::kPlay);
    return done(Value(true));
  }
  if (method == "stop") {
    record_deadline_.reset();
    set_state(TransportState::kStop);
    return done(Value(true));
  }
  if (method == "pause") {
    if (state_ == TransportState::kStop) {
      return done(invalid_argument("cannot pause from STOP"));
    }
    set_state(TransportState::kPause);
    return done(Value(true));
  }
  if (method == "record") {
    auto minutes = args[0].to_int();
    if (!minutes.is_ok() || minutes.value() <= 0) {
      return done(invalid_argument("record duration must be positive"));
    }
    record_deadline_ =
        scheduler().now() + sim::seconds(minutes.value() * 60);
    set_state(TransportState::kRecord);
    return done(Value(true));
  }
  if (method == "getTransportState") {
    return done(Value(std::string(to_string(state_))));
  }
  if (method == "getCounter") {
    return done(Value(static_cast<std::int64_t>(play_position_)));
  }
  if (method == "getTapeFrames") {
    return done(Value(static_cast<std::int64_t>(tape_frames_)));
  }
  done(not_found("VcrFcm: " + method));
}

void VcrFcm::set_event_manager(Seid event_manager) {
  events_.emplace(messaging(), seid(), event_manager);
}

void VcrFcm::set_state(TransportState s) {
  const bool changed = state_ != s;
  state_ = s;
  if (changed && events_) {
    events_->post({Value(name() + ".transportChanged"),
                   Value(ValueMap{
                       {"state", Value(std::string(to_string(s)))}})});
  }
  bool need_tick = (s == TransportState::kPlay && source_channel_) ||
                   s == TransportState::kRecord;
  if (need_tick && tick_event_ == 0) {
    tick_event_ = scheduler().after(kFramePeriod, [this] { tick(); });
  }
  if (!need_tick && tick_event_ != 0 && s != TransportState::kRecord &&
      s != TransportState::kPlay) {
    scheduler().cancel(tick_event_);
    tick_event_ = 0;
  }
}

void VcrFcm::tick() {
  tick_event_ = 0;
  if (state_ == TransportState::kPlay && source_channel_) {
    if (play_position_ < tape_frames_) {
      ++play_position_;
      (void)bus_.send_iso(*source_channel_, Bytes(kFrameBytes));
    } else {
      set_state(TransportState::kStop);  // end of tape
      return;
    }
  } else if (state_ == TransportState::kRecord) {
    // Without a connected sink channel the VCR records its own tuner
    // input; with one it captures the incoming stream (frames arrive in
    // the iso listener too — both paths advance the tape).
    if (!sink_channel_) ++tape_frames_;
    if (record_deadline_ && scheduler().now() >= *record_deadline_) {
      record_deadline_.reset();
      set_state(TransportState::kStop);
      return;
    }
  } else {
    return;  // paused or stopped: no rescheduling
  }
  tick_event_ = scheduler().after(kFramePeriod, [this] { tick(); });
}

Status VcrFcm::on_connect_source(net::IsoChannel ch) {
  source_channel_ = ch;
  return Status::ok();
}

Status VcrFcm::on_connect_sink(net::IsoChannel ch) {
  sink_channel_ = ch;
  sink_listener_ =
      bus_.listen_channel(ch, [this](net::IsoChannel, const Bytes&) {
        if (state_ == TransportState::kRecord) ++tape_frames_;
      });
  return Status::ok();
}

void VcrFcm::on_disconnect() {
  if (sink_channel_) bus_.unlisten_channel(*sink_channel_, sink_listener_);
  source_channel_.reset();
  sink_channel_.reset();
}

// --- DV camera -----------------------------------------------------------

InterfaceDesc DvCameraFcm::describe_interface() {
  return InterfaceDesc{
      "CameraControl",
      {
          MethodDesc{"startCapture", {}, ValueType::kBool, false},
          MethodDesc{"stopCapture", {}, ValueType::kBool, false},
          MethodDesc{"zoom", {{"level", ValueType::kInt}}, ValueType::kBool,
                     false},
          MethodDesc{"getStatus", {}, ValueType::kMap, false},
      }};
}

DvCameraFcm::DvCameraFcm(MessagingSystem& ms, net::Ieee1394Bus& bus,
                         std::string huid, std::string name)
    : Fcm(ms, "CAMERA", std::move(huid), std::move(name),
          describe_interface()),
      bus_(bus) {}

DvCameraFcm::~DvCameraFcm() {
  if (tick_event_ != 0) scheduler().cancel(tick_event_);
}

void DvCameraFcm::invoke(const std::string& method, const ValueList& args,
                         InvokeResultFn done) {
  if (method == "startCapture") {
    capturing_ = true;
    if (channel_ && tick_event_ == 0) {
      tick_event_ = scheduler().after(kFramePeriod, [this] { tick(); });
    }
    return done(Value(true));
  }
  if (method == "stopCapture") {
    capturing_ = false;
    return done(Value(true));
  }
  if (method == "zoom") {
    auto level = args[0].to_int();
    if (!level.is_ok() || level.value() < 1 || level.value() > 20) {
      return done(invalid_argument("zoom level must be 1..20"));
    }
    zoom_ = level.value();
    return done(Value(true));
  }
  if (method == "getStatus") {
    return done(Value(ValueMap{
        {"capturing", Value(capturing_)},
        {"zoom", Value(zoom_)},
        {"framesSent", Value(static_cast<std::int64_t>(frames_sent_))},
    }));
  }
  done(not_found("DvCameraFcm: " + method));
}

void DvCameraFcm::tick() {
  tick_event_ = 0;
  if (!capturing_ || !channel_) return;
  ++frames_sent_;
  (void)bus_.send_iso(*channel_, Bytes(kFrameBytes));
  tick_event_ = scheduler().after(kFramePeriod, [this] { tick(); });
}

Status DvCameraFcm::on_connect_source(net::IsoChannel ch) {
  channel_ = ch;
  if (capturing_ && tick_event_ == 0) {
    tick_event_ = scheduler().after(kFramePeriod, [this] { tick(); });
  }
  return Status::ok();
}

void DvCameraFcm::on_disconnect() { channel_.reset(); }

// --- Display -------------------------------------------------------------

InterfaceDesc DisplayFcm::describe_interface() {
  return InterfaceDesc{
      "DisplayControl",
      {
          MethodDesc{"powerOn", {}, ValueType::kBool, false},
          MethodDesc{"powerOff", {}, ValueType::kBool, false},
          MethodDesc{"selectInput", {{"input", ValueType::kString}},
                     ValueType::kBool, false},
          MethodDesc{"getStatus", {}, ValueType::kMap, false},
      }};
}

DisplayFcm::DisplayFcm(MessagingSystem& ms, net::Ieee1394Bus& bus,
                       std::string huid, std::string name)
    : Fcm(ms, "DISPLAY", std::move(huid), std::move(name),
          describe_interface()),
      bus_(bus) {}

DisplayFcm::~DisplayFcm() {
  if (channel_) bus_.unlisten_channel(*channel_, listener_);
}

void DisplayFcm::invoke(const std::string& method, const ValueList& args,
                        InvokeResultFn done) {
  if (method == "powerOn") {
    powered_ = true;
    return done(Value(true));
  }
  if (method == "powerOff") {
    powered_ = false;
    return done(Value(true));
  }
  if (method == "selectInput") {
    input_ = args[0].as_string();
    return done(Value(true));
  }
  if (method == "getStatus") {
    return done(Value(ValueMap{
        {"powered", Value(powered_)},
        {"input", Value(input_)},
        {"framesShown", Value(static_cast<std::int64_t>(frames_shown_))},
    }));
  }
  done(not_found("DisplayFcm: " + method));
}

Status DisplayFcm::on_connect_sink(net::IsoChannel ch) {
  channel_ = ch;
  listener_ = bus_.listen_channel(ch, [this](net::IsoChannel, const Bytes&) {
    if (powered_) ++frames_shown_;
  });
  return Status::ok();
}

void DisplayFcm::on_disconnect() {
  if (channel_) bus_.unlisten_channel(*channel_, listener_);
  channel_.reset();
}

// --- Tuner ---------------------------------------------------------------

InterfaceDesc TunerFcm::describe_interface() {
  return InterfaceDesc{
      "TunerControl",
      {
          MethodDesc{"setChannel", {{"channel", ValueType::kInt}},
                     ValueType::kBool, false},
          MethodDesc{"getChannel", {}, ValueType::kInt, false},
      }};
}

TunerFcm::TunerFcm(MessagingSystem& ms, net::Ieee1394Bus& bus,
                   std::string huid, std::string name)
    : Fcm(ms, "TUNER", std::move(huid), std::move(name), describe_interface()),
      bus_(bus) {}

TunerFcm::~TunerFcm() {
  if (tick_event_ != 0) scheduler().cancel(tick_event_);
}

void TunerFcm::invoke(const std::string& method, const ValueList& args,
                      InvokeResultFn done) {
  if (method == "setChannel") {
    auto channel = args[0].to_int();
    if (!channel.is_ok() || channel.value() < 1 || channel.value() > 999) {
      return done(invalid_argument("channel must be 1..999"));
    }
    tuned_channel_ = channel.value();
    return done(Value(true));
  }
  if (method == "getChannel") {
    return done(Value(tuned_channel_));
  }
  done(not_found("TunerFcm: " + method));
}

void TunerFcm::tick() {
  tick_event_ = 0;
  if (!iso_channel_) return;
  ++frames_sent_;
  (void)bus_.send_iso(*iso_channel_, Bytes(kFrameBytes));
  tick_event_ = scheduler().after(kFramePeriod, [this] { tick(); });
}

Status TunerFcm::on_connect_source(net::IsoChannel ch) {
  iso_channel_ = ch;
  if (tick_event_ == 0) {
    tick_event_ = scheduler().after(kFramePeriod, [this] { tick(); });
  }
  return Status::ok();
}

void TunerFcm::on_disconnect() {
  iso_channel_.reset();
  if (tick_event_ != 0) {
    scheduler().cancel(tick_event_);
    tick_event_ = 0;
  }
}

}  // namespace hcm::havi
