#include "testbed/home.hpp"

namespace hcm::testbed {

namespace {
// X10 address of the home's motion sensor.
constexpr x10::HouseCode kSensorHouse = x10::HouseCode::kA;
constexpr int kSensorUnit = 5;

// The interface remote event listeners export (mirrors jini::LookupService).
InterfaceDesc listener_interface() {
  return InterfaceDesc{
      "RemoteEventListener",
      {MethodDesc{"serviceEvent",
                  {{"type", ValueType::kString}, {"item", ValueType::kMap}},
                  ValueType::kNull,
                  true}}};
}
}  // namespace

InterfaceDesc LaserdiscPlayer::describe_interface() {
  InterfaceDesc iface{
      "MediaPlayer",
      {
          MethodDesc{"turnOn", {}, ValueType::kBool, false},
          MethodDesc{"turnOff", {}, ValueType::kBool, false},
          MethodDesc{"play", {}, ValueType::kBool, false},
          MethodDesc{"stop", {}, ValueType::kBool, false},
          MethodDesc{"getStatus", {}, ValueType::kMap, false},
          // Jini remote-event registration (RemoteEventListener model).
          MethodDesc{"notify",
                     {{"node", ValueType::kInt},
                      {"port", ValueType::kInt},
                      {"listener", ValueType::kString}},
                     ValueType::kInt,
                     false},
          MethodDesc{"cancelNotify",
                     {{"id", ValueType::kInt}},
                     ValueType::kBool,
                     false},
      }};
  iface.events.push_back(MethodDesc{"statusChanged",
                                    {{"powered", ValueType::kBool},
                                     {"playing", ValueType::kBool}},
                                    ValueType::kNull,
                                    true});
  return iface;
}

LaserdiscPlayer::LaserdiscPlayer(net::Network& net, net::NodeId node,
                                 net::Endpoint lookup_endpoint)
    : net_(net), node_(node), server_(net, node, 4170, "jini") {
  (void)server_.start();
  server_.register_service(
      "laserdisc-1",
      [this](const std::string& method, const ValueList& args,
             InvokeResultFn done) { handle(method, args, done); });
  jini::ServiceItem item;
  item.service_id = "laserdisc-1";
  item.name = "laserdisc-1";
  item.interface = describe_interface();
  item.endpoint = server_.endpoint();
  item.attributes = ValueMap{{"vendor", Value("pioneer")}};
  registrar_ = std::make_unique<jini::Registrar>(net, node, lookup_endpoint,
                                                 std::move(item));
  registrar_->join([](const Status&) {});
}

void LaserdiscPlayer::handle(const std::string& method, const ValueList& args,
                             InvokeResultFn done) {
  ++commands_;
  if (method == "turnOn") {
    powered_ = true;
    fire_status_changed();
    return done(Value(true));
  }
  if (method == "turnOff") {
    powered_ = false;
    playing_ = false;
    fire_status_changed();
    return done(Value(true));
  }
  if (method == "play") {
    if (!powered_) return done(unavailable("laserdisc is powered off"));
    playing_ = true;
    fire_status_changed();
    return done(Value(true));
  }
  if (method == "stop") {
    playing_ = false;
    fire_status_changed();
    return done(Value(true));
  }
  if (method == "notify") {
    if (args.size() != 3 || !args[0].is_int() || !args[1].is_int() ||
        !args[2].is_string()) {
      return done(invalid_argument("notify(node, port, listener_id)"));
    }
    jini::ServiceItem item;
    item.service_id = args[2].as_string();
    item.name = "listener";
    item.interface = listener_interface();
    item.endpoint = {static_cast<net::NodeId>(args[0].as_int()),
                     static_cast<std::uint16_t>(args[1].as_int())};
    auto id = next_listener_++;
    listeners_[id] =
        std::make_unique<jini::Proxy>(net_, node_, std::move(item));
    return done(Value(id));
  }
  if (method == "cancelNotify") {
    if (args.size() != 1 || !args[0].is_int()) {
      return done(invalid_argument("cancelNotify(id)"));
    }
    return done(Value(listeners_.erase(args[0].as_int()) > 0));
  }
  if (method == "getStatus") {
    return done(Value(ValueMap{
        {"powered", Value(powered_)},
        {"playing", Value(playing_)},
    }));
  }
  done(not_found("laserdisc has no method " + method));
}

void LaserdiscPlayer::fire_status_changed() {
  for (auto& [id, listener] : listeners_) {
    (void)listener->invoke_one_way(
        "serviceEvent", {Value(std::string("statusChanged")),
                         Value(ValueMap{{"powered", Value(powered_)},
                                        {"playing", Value(playing_)}})});
  }
}

SmartHome::SmartHome(sim::Scheduler& scheduler,
                     const SmartHomeOptions& options)
    : sched(scheduler), net(scheduler) {
  build(options);
}

SmartHome::SmartHome(const SmartHomeOptions& options)
    : owned_kernel(std::make_unique<sim::ShardedKernel>(
          sim::ShardedKernelOptions{options.shards})),
      kernel(owned_kernel.get()),
      sched(kernel->shard(0)),
      net(sched) {
  net.set_kernel(kernel);
  build(options);
}

SmartHome::SmartHome(sim::ShardedKernel& k, const SmartHomeOptions& options)
    : kernel(&k), sched(k.shard(0)), net(sched) {
  net.set_kernel(kernel);
  build(options);
}

void SmartHome::build(const SmartHomeOptions& options) {
  const sim::ShardId jini_shard = shard_for_island(0);
  const sim::ShardId havi_shard = shard_for_island(1);
  const sim::ShardId x10_shard = shard_for_island(2);
  const sim::ShardId mail_shard = shard_for_island(3);
  island_shards = {{"jini-island", jini_shard},
                   {"havi-island", havi_shard},
                   {"x10-island", x10_shard},
                   {"mail-island", mail_shard}};

  // --- backbone + VSR (shard 0) -----------------------------------------
  on_shard(0, [&] {
    backbone = &net.add_ethernet("backbone", sim::milliseconds(5), 10'000'000);
    vsr_node = &net.add_node("vsr-host");
    net.attach(*vsr_node, *backbone);
    vsr = std::make_unique<core::VsrServer>(
        net, vsr_node->id(), 8000, soap::UddiRegistry::kDefaultJournalCapacity,
        options.store_dir);
    (void)vsr->start();
  });

  // --- Jini island --------------------------------------------------------
  // Each island block runs bound to its shard: nodes auto-place there
  // and every timer/stream the island objects create at construction
  // lands on the island's own slab. Only the backbone spans shards, so
  // its 5 ms latency is the conservative lookahead.
  on_shard(jini_shard, [&] {
    jini_lan =
        &net.add_ethernet("jini-lan", sim::microseconds(200), 100'000'000);
    jini_gw = &net.add_node("jini-gw");
    lookup_node = &net.add_node("jini-lookup");
    laserdisc_node = &net.add_node("laserdisc");
    net.attach(*jini_gw, *jini_lan);
    net.attach(*jini_gw, *backbone);
    net.attach(*lookup_node, *jini_lan);
    net.attach(*laserdisc_node, *jini_lan);
    lookup = std::make_unique<jini::LookupService>(net, lookup_node->id());
    (void)lookup->start();
    laserdisc = std::make_unique<LaserdiscPlayer>(net, laserdisc_node->id(),
                                                  lookup->endpoint());
  });

  // --- HAVi island --------------------------------------------------------
  on_shard(havi_shard, [&] {
    firewire = &net.add_ieee1394("firewire");
    havi_gw = &net.add_node("havi-gw");
    vcr_node = &net.add_node("d-vhs");
    camera_node = &net.add_node("dv-camera");
    net.attach(*havi_gw, *firewire);
    net.attach(*havi_gw, *backbone);
    net.attach(*vcr_node, *firewire);
    net.attach(*camera_node, *firewire);
    fav = std::make_unique<havi::FavController>(net, havi_gw->id(), *firewire);

    vcr_ms = std::make_unique<havi::MessagingSystem>(net, vcr_node->id());
    (void)vcr_ms->start();
    vcr_dcm = std::make_unique<havi::Dcm>(*vcr_ms, "huid-dvhs", "D-VHS deck");
    {
      auto fcm = std::make_unique<havi::VcrFcm>(*vcr_ms, *firewire,
                                                "huid-dvhs-t", "vcr-1");
      vcr = fcm.get();
      vcr_dcm->add_fcm(std::move(fcm));
      vcr->set_event_manager(fav->event_manager.seid());
      auto tuner_fcm = std::make_unique<havi::TunerFcm>(
          *vcr_ms, *firewire, "huid-dvhs-u", "tuner-1");
      tuner = tuner_fcm.get();
      vcr_dcm->add_fcm(std::move(tuner_fcm));
    }

    camera_ms = std::make_unique<havi::MessagingSystem>(net, camera_node->id());
    (void)camera_ms->start();
    camera_dcm =
        std::make_unique<havi::Dcm>(*camera_ms, "huid-cam", "DV camera");
    {
      auto fcm = std::make_unique<havi::DvCameraFcm>(*camera_ms, *firewire,
                                                     "huid-cam-c", "camera-1");
      camera = fcm.get();
      camera_dcm->add_fcm(std::move(fcm));
      auto display_fcm = std::make_unique<havi::DisplayFcm>(
          *camera_ms, *firewire, "huid-cam-d", "display-1");
      display = display_fcm.get();
      camera_dcm->add_fcm(std::move(display_fcm));
    }

    {
      havi::RegistryClient vcr_rc(*vcr_ms, vcr_dcm->seid(),
                                  fav->registry.seid());
      havi::RegistryClient cam_rc(*camera_ms, camera_dcm->seid(),
                                  fav->registry.seid());
      vcr_dcm->announce(vcr_rc, [](const Status&) {});
      camera_dcm->announce(cam_rc, [](const Status&) {});
    }
  });

  // --- X10 island ---------------------------------------------------------
  on_shard(x10_shard, [&] {
    powerline = &net.add_powerline("powerline");
    x10_gw = &net.add_node("x10-gw");
    lamp_node = &net.add_node("desk-lamp");
    fan_node = &net.add_node("ceiling-fan");
    sensor_node = &net.add_node("motion-sensor");
    remote_node = &net.add_node("x10-remote");
    net.attach(*x10_gw, *powerline);
    net.attach(*x10_gw, *backbone);
    net.attach(*lamp_node, *powerline);
    net.attach(*fan_node, *powerline);
    net.attach(*sensor_node, *powerline);
    net.attach(*remote_node, *powerline);
    cm11a = std::make_unique<x10::Cm11aController>(net, x10_gw->id(),
                                                   *powerline);
    lamp = std::make_unique<x10::LampModule>(net, lamp_node->id(), *powerline,
                                             x10::HouseCode::kA, 1);
    fan = std::make_unique<x10::ApplianceModule>(
        net, fan_node->id(), *powerline, x10::HouseCode::kA, 2);
    motion_sensor = std::make_unique<x10::MotionSensor>(
        net, sensor_node->id(), *powerline, kSensorHouse, kSensorUnit);
    remote = std::make_unique<x10::RemoteControl>(
        net, remote_node->id(), *powerline, x10::HouseCode::kP);
  });

  // --- Mail island --------------------------------------------------------
  if (options.include_mail_island) {
    on_shard(mail_shard, [&] {
      mail_node = &net.add_node("mail-host");
      mail_gw = &net.add_node("mail-gw");
      net.attach(*mail_node, *backbone);
      net.attach(*mail_gw, *backbone);
      mail_server = std::make_unique<mail::MailServer>(net, mail_node->id());
      (void)mail_server->start();
    });
  }

  // --- meta-middleware ---------------------------------------------------
  on_shard(0, [&] {
    meta = std::make_unique<core::MetaMiddleware>(net, vsr->endpoint());
  });

  on_shard(jini_shard, [&] {
    auto adapter = std::make_unique<core::JiniAdapter>(net, jini_gw->id(),
                                                       lookup->endpoint());
    (void)adapter->start();
    jini_adapter = adapter.get();
    (void)meta->add_island("jini-island", jini_gw->id(), std::move(adapter),
                           options.protocol);
  });
  on_shard(havi_shard, [&] {
    auto adapter = std::make_unique<core::HaviAdapter>(fav->messaging,
                                                       fav->registry.seid());
    havi_adapter = adapter.get();
    (void)meta->add_island("havi-island", havi_gw->id(), std::move(adapter),
                           options.protocol);
  });
  on_shard(x10_shard, [&] {
    std::vector<core::X10DeviceConfig> devices{
        {"desk-lamp", x10::HouseCode::kA, 1, /*dimmable=*/true},
        {"ceiling-fan", x10::HouseCode::kA, 2, /*dimmable=*/false},
    };
    auto adapter = std::make_unique<core::X10Adapter>(
        net, *cm11a, std::move(devices), x10::HouseCode::kP);
    x10_adapter = adapter.get();
    (void)meta->add_island("x10-island", x10_gw->id(), std::move(adapter),
                           options.protocol);
  });
  if (options.include_mail_island) {
    on_shard(mail_shard, [&] {
      auto adapter = std::make_unique<core::MailAdapter>(
          net, mail_gw->id(), mail_node->id(), "home", options.mail_poll);
      mail_adapter = adapter.get();
      (void)meta->add_island("mail-island", mail_gw->id(), std::move(adapter),
                             options.protocol);
    });
  }

  // Let announcements, registrations and lease joins settle (bounded:
  // lease renewal is periodic, so the queue never empties).
  if (kernel != nullptr) {
    const sim::Duration min_latency = net.min_cross_shard_latency();
    if (min_latency > 0) kernel->set_lookahead(min_latency);
    kernel->run_for(sim::seconds(2));
  } else {
    sched.run_for(sim::seconds(2));
  }
}

Status SmartHome::refresh() {
  std::optional<Status> result;
  if (kernel != nullptr) {
    kernel->run_as(0, [&] {
      meta->refresh_all([&](const Status& s) { result = s; });
    });
    kernel->run_until_done([&] { return result.has_value(); });
  } else {
    meta->refresh_all([&](const Status& s) { result = s; });
    sim::run_until_done(sched, [&] { return result.has_value(); });
  }
  return result.value_or(internal_error("refresh did not complete"));
}

Status expose_motion_events(SmartHome& home) {
  auto* island = home.meta->island("x10-island");
  if (island == nullptr) return not_found("no x10-island");
  InterfaceDesc iface{"MotionSensor", {}};
  iface.events.push_back(MethodDesc{
      "motion", {{"address", ValueType::kString}}, ValueType::kNull, true});
  auto published = std::make_shared<std::optional<Status>>();
  auto status = island->pcm->host_service(
      kMotionService, iface,
      [](const std::string& method, const ValueList&, InvokeResultFn done) {
        done(unimplemented("motion sensor has no method " + method));
      },
      [published](const Status& s) { *published = s; });
  if (!status.is_ok()) return status;
  sim::run_until_done(home.sched, [&] { return published->has_value(); });
  if (!published->has_value() || !(*published)->is_ok()) {
    return published->value_or(internal_error("publish did not complete"));
  }

  home.cm11a->set_observer(
      [events = island->events.get()](const x10::ObservedCommand& cmd) {
        if (cmd.house != kSensorHouse || cmd.unit != kSensorUnit ||
            cmd.function != x10::FunctionCode::kOn) {
          return;
        }
        events->on_native_event(
            kMotionService, "motion",
            Value(ValueMap{{"address", Value(x10::format_address(
                                           cmd.house, cmd.unit))}}));
      });
  return Status::ok();
}

}  // namespace hcm::testbed
