// Event-based multimedia — the experiment of the paper's §4.2: "we have
// tried to develop the event-based multimedia system, which manages
// multimedia streams and sends multimedia data to appropriate I/O
// devices, with X10 motion sensors and HAVi and Jini AV systems. But
// there are some difficulties such as ... dynamic service activation
// because of the limitation of HTTP."
//
// This example shows both halves:
//   (a) the polling workaround over the HTTP-based framework (a watcher
//       polls the CM11A for motion, with latency = poll interval), and
//   (b) the paper's future-work answer (§6): the event bridge pushes
//       the same event from the X10 island to a HAVi-island lease,
//       over the binary VSG, so no HTTP and no polling.
// Both trigger the same reaction: start the HAVi camera and stream it
// to the display over an isochronous channel.
//
// Run: ./build/examples/event_multimedia
#include <cstdio>

#include "testbed/home.hpp"

using namespace hcm;

namespace {

void start_surveillance(testbed::SmartHome& home) {
  // Start the camera and wire camera -> display through the HAVi
  // stream manager.
  home.havi_adapter->invoke("camera-1", "startCapture", {},
                            [](Result<Value>) {});
  havi::StreamManagerClient smc(
      home.fav->messaging, home.fav->messaging.register_element(nullptr),
      home.fav->stream_manager.seid());
  smc.connect(home.camera->seid(), home.display->seid(),
              [](Result<havi::StreamConnection> r) {
                if (r.is_ok()) {
                  std::printf("      stream up on iso channel %d\n",
                              r.value().channel);
                }
              });
  home.havi_adapter->invoke("display-1", "powerOn", {}, [](Result<Value>) {});
}

}  // namespace

int main() {
  sim::Scheduler sched;
  testbed::SmartHomeOptions options;
  options.protocol = core::VsgProtocol::kBinary;
  testbed::SmartHome home(sched, options);
  (void)home.refresh();

  std::printf("=== (a) HTTP-era polling integration ===\n");
  {
    // The X10 gateway's CM11A observes the powerline; an application on
    // the HAVi side can only poll across HTTP, so motion reaction
    // latency is bounded by the poll interval (here 10 s).
    bool motion_seen = false;
    std::optional<sim::SimTime> motion_at, reacted_at;
    home.cm11a->set_observer([&](const x10::ObservedCommand& cmd) {
      if (cmd.house == x10::HouseCode::kA && cmd.unit == 5 &&
          cmd.function == x10::FunctionCode::kOn) {
        motion_seen = true;
      }
    });
    const auto poll = sim::seconds(10);
    // Poll a fixed number of times; state lives in shared_ptrs so the
    // scheduled closures stay valid for their whole lifetime.
    auto polls_left = std::make_shared<int>(6);
    auto poll_fn = std::make_shared<std::function<void()>>();
    // The stored closure must not capture poll_fn strongly (self-cycle,
    // never freed); the scheduled wrappers hold the strong reference.
    std::weak_ptr<std::function<void()>> weak_poll = poll_fn;
    *poll_fn = [&home, &sched, &motion_seen, &reacted_at, poll, polls_left,
                weak_poll] {
      if (motion_seen && !reacted_at) {
        reacted_at = sched.now();
        start_surveillance(home);
      }
      if (--*polls_left > 0) {
        if (auto fn = weak_poll.lock()) sched.after(poll, [fn] { (*fn)(); });
      }
    };
    sched.after(poll, [poll_fn] { (*poll_fn)(); });

    sched.after(sim::seconds(3), [&] {
      motion_at = sched.now();
      home.motion_sensor->trigger();
    });
    sched.run_for(sim::seconds(70));
    if (reacted_at && motion_at) {
      std::printf("  motion -> camera latency: %.1f s (poll interval %lld s)\n",
                  static_cast<double>(*reacted_at - *motion_at) / 1e6,
                  static_cast<long long>(poll / 1'000'000));
    }
    std::printf("  display has shown %llu frames\n",
                static_cast<unsigned long long>(home.display->frames_shown()));
    home.cm11a->set_observer(nullptr);
  }

  std::printf(
      "\n=== (b) event bridge over the binary VSG (future work, §6) ===\n");
  {
    // The X10 island exposes the motion sensor as a service with a
    // `motion` event...
    if (auto s = testbed::expose_motion_events(home); !s.is_ok()) {
      std::printf("  motion service: %s\n", s.to_string().c_str());
      return 1;
    }
    // ...the HAVi island's PCM imports it on the next refresh...
    if (auto s = home.refresh(); !s.is_ok()) {
      std::printf("  refresh: %s\n", s.to_string().c_str());
      return 1;
    }
    // ...and the HAVi island leases it and reacts the moment it arrives.
    std::optional<sim::SimTime> motion_at, reacted_at;
    home.meta->island("havi-island")
        ->events->subscribe(
            testbed::kMotionService, "motion",
            [&](const std::string& service, const std::string&,
                const Value& v) {
              if (reacted_at) return;
              reacted_at = sched.now();
              std::printf("  motion event from %s at %s\n", service.c_str(),
                          v.at("address").to_string().c_str());
              home.havi_adapter->invoke("camera-1", "zoom", {Value(3)},
                                        [](Result<Value>) {});
            },
            [](Result<std::string> lease) {
              if (!lease.is_ok()) {
                std::printf("  subscribe failed: %s\n",
                            lease.status().to_string().c_str());
              }
            });

    sched.after(sim::seconds(2), [&] {
      motion_at = sched.now();
      home.motion_sensor->trigger();
    });
    sched.run_for(sim::seconds(20));
    if (reacted_at && motion_at) {
      std::printf("  motion -> reaction latency: %.3f s (push, no polling)\n",
                  static_cast<double>(*reacted_at - *motion_at) / 1e6);
    } else {
      std::printf("  event did not arrive\n");
      return 1;
    }
  }

  std::printf("\ncamera sent %llu frames total\n",
              static_cast<unsigned long long>(home.camera->frames_sent()));
  return 0;
}
