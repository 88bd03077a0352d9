// The canonical simulated smart home — the paper's Figure 3 topology:
// a Jini island on Ethernet (laserdisc player, lookup service), a HAVi
// island on IEEE1394 (VCR, DV camera, display, tuner behind a FAV
// controller), an X10 island on the powerline (lamp, fan, motion
// sensor, hand-held remote), an Internet mail service, and the meta-
// middleware (VSR + one VSG/PCM per island) connecting them. Tests,
// benches and examples all build on this so the topology is stated once.
#pragma once

#include <map>
#include <memory>

#include "core/adapters/havi_adapter.hpp"
#include "core/adapters/jini_adapter.hpp"
#include "core/adapters/mail_adapter.hpp"
#include "core/adapters/x10_adapter.hpp"
#include "core/meta.hpp"
#include "havi/dcm.hpp"
#include "havi/fcm_av.hpp"
#include "jini/lookup.hpp"
#include "jini/proxy.hpp"
#include "jini/registrar.hpp"
#include "mail/mail.hpp"
#include "sim/sharded_kernel.hpp"
#include "x10/cm11a.hpp"
#include "x10/device.hpp"

namespace hcm::testbed {

// The Jini-native laserdisc player of Fig. 5 ("controlling a Jini
// Laserdisc with an X10 remote controller"). Besides its control
// methods it supports Jini remote events: notify(node, port, listener)
// registers a RemoteEventListener that receives serviceEvent
// ("statusChanged", {powered, playing}) on every state change.
class LaserdiscPlayer {
 public:
  LaserdiscPlayer(net::Network& net, net::NodeId node,
                  net::Endpoint lookup_endpoint);

  static InterfaceDesc describe_interface();

  [[nodiscard]] bool powered() const { return powered_; }
  [[nodiscard]] std::uint64_t commands() const { return commands_; }
  [[nodiscard]] std::size_t listener_count() const {
    return listeners_.size();
  }

 private:
  void handle(const std::string& method, const ValueList& args,
              InvokeResultFn done);
  void fire_status_changed();

  net::Network& net_;
  net::NodeId node_;
  net::BinaryRpcServer server_;
  std::unique_ptr<jini::Registrar> registrar_;
  bool powered_ = false;
  bool playing_ = false;
  std::uint64_t commands_ = 0;
  std::map<std::int64_t, std::unique_ptr<jini::Proxy>> listeners_;
  std::int64_t next_listener_ = 1;
};

struct SmartHomeOptions {
  core::VsgProtocol protocol = core::VsgProtocol::kSoap;
  bool include_mail_island = true;
  sim::Duration mail_poll = sim::seconds(5);
  // Non-empty: the VSR persists to this directory (store::VsrStore) and
  // a SmartHome constructed over the same directory resumes the
  // registry's previous epoch/sequence. See docs/PERSISTENCE.md.
  std::string store_dir;
  // Worker shards for the kernel-owning constructor. 1 keeps today's
  // single-threaded behavior (byte-identical traces); islands are
  // spread across shards (i+1) % shards with the backbone + VSR on
  // shard 0, so the 5 ms backbone latency is the lookahead.
  sim::ShardId shards = 1;
};

class SmartHome {
 public:
  explicit SmartHome(sim::Scheduler& sched)
      : SmartHome(sched, SmartHomeOptions{}) {}
  // Legacy single-scheduler home (options.shards ignored; no kernel).
  SmartHome(sim::Scheduler& sched, const SmartHomeOptions& options);
  // Home that owns a sharded kernel with options.shards shards.
  explicit SmartHome(const SmartHomeOptions& options);
  // Home over a caller-owned kernel (must be freshly constructed).
  SmartHome(sim::ShardedKernel& kernel, const SmartHomeOptions& options = {});
  SmartHome(const SmartHome&) = delete;
  SmartHome& operator=(const SmartHome&) = delete;

  // Runs meta.refresh_all and drains the scheduler/kernel; returns its
  // status.
  Status refresh();

  // Shard hosting an island's gateway ("jini-island" etc.); 0 when not
  // sharded.
  [[nodiscard]] sim::ShardId island_shard(const std::string& name) const {
    auto it = island_shards.find(name);
    return it == island_shards.end() ? 0 : it->second;
  }

  // Declared before sched/net: both bind to shard 0 of the owned
  // kernel when one exists.
  std::unique_ptr<sim::ShardedKernel> owned_kernel;
  sim::ShardedKernel* kernel = nullptr;  // null in pure legacy mode
  sim::Scheduler& sched;
  net::Network net;
  std::map<std::string, sim::ShardId> island_shards;

  // --- backbone + VSR ---------------------------------------------------
  net::EthernetSegment* backbone = nullptr;
  net::Node* vsr_node = nullptr;
  std::unique_ptr<core::VsrServer> vsr;

  // --- Jini island --------------------------------------------------------
  net::EthernetSegment* jini_lan = nullptr;
  net::Node* jini_gw = nullptr;
  net::Node* lookup_node = nullptr;
  net::Node* laserdisc_node = nullptr;
  std::unique_ptr<jini::LookupService> lookup;
  std::unique_ptr<LaserdiscPlayer> laserdisc;

  // --- HAVi island ----------------------------------------------------------
  net::Ieee1394Bus* firewire = nullptr;
  net::Node* havi_gw = nullptr;   // also the FAV controller
  net::Node* vcr_node = nullptr;
  net::Node* camera_node = nullptr;
  std::unique_ptr<havi::FavController> fav;
  std::unique_ptr<havi::MessagingSystem> vcr_ms;
  std::unique_ptr<havi::MessagingSystem> camera_ms;
  std::unique_ptr<havi::Dcm> vcr_dcm;
  std::unique_ptr<havi::Dcm> camera_dcm;
  havi::VcrFcm* vcr = nullptr;
  havi::DvCameraFcm* camera = nullptr;
  havi::DisplayFcm* display = nullptr;
  havi::TunerFcm* tuner = nullptr;

  // --- X10 island ---------------------------------------------------------
  net::PowerlineSegment* powerline = nullptr;
  net::Node* x10_gw = nullptr;
  net::Node* lamp_node = nullptr;
  net::Node* fan_node = nullptr;
  net::Node* sensor_node = nullptr;
  net::Node* remote_node = nullptr;
  std::unique_ptr<x10::Cm11aController> cm11a;
  std::unique_ptr<x10::LampModule> lamp;
  std::unique_ptr<x10::ApplianceModule> fan;
  std::unique_ptr<x10::MotionSensor> motion_sensor;
  std::unique_ptr<x10::RemoteControl> remote;

  // --- Mail island -----------------------------------------------------------
  net::Node* mail_node = nullptr;
  net::Node* mail_gw = nullptr;
  std::unique_ptr<mail::MailServer> mail_server;

  // --- meta-middleware ---------------------------------------------------
  std::unique_ptr<core::MetaMiddleware> meta;
  // Raw adapter handles (owned by the PCMs inside meta).
  core::JiniAdapter* jini_adapter = nullptr;
  core::HaviAdapter* havi_adapter = nullptr;
  core::X10Adapter* x10_adapter = nullptr;
  core::MailAdapter* mail_adapter = nullptr;

 private:
  void build(const SmartHomeOptions& options);
  [[nodiscard]] sim::ShardId shard_for_island(std::size_t idx) const {
    const sim::ShardId n = kernel == nullptr ? 1 : kernel->shards();
    return n == 1 ? 0 : static_cast<sim::ShardId>((idx + 1) % n);
  }
  // Bind construction-time code to an island's shard so the objects'
  // timers and sends land on their own slab; identity when unsharded.
  template <typename Fn>
  void on_shard(sim::ShardId s, Fn&& fn) {
    if (kernel == nullptr) {
      fn();
    } else {
      kernel->run_as(s, std::forward<Fn>(fn));
    }
  }
};

// The motion sensor as an event source, for the §4.2 experiment
// (bench_sec42_async_limits, examples/event_multimedia). Hosts
// kMotionService on the X10 island's PCM as a framework service whose
// interface declares one `motion` event (the PCM exposes it, publishes
// its WSDL and keeps it leased), waits for the publication, and takes
// over the CM11A observer so every ON frame from the sensor
// reaches the island's event bridge as `motion` {address}. Subscribe
// through another island's `events` after that island's next refresh,
// which imports the service. Needs a single-scheduler home; the
// canonical home does not carry this service.
inline constexpr const char* kMotionService = "motion-sensor";
[[nodiscard]] Status expose_motion_events(SmartHome& home);

}  // namespace hcm::testbed
