// Native change feeds: JiniAdapter and HaviAdapter keep their service
// sets current from the LUS's REGISTERED/REMOVED events and the
// Registry's NewSoftwareElement/GoneSoftwareElement events, and re-list
// only on a feed gap. Every test checks the feed-driven listing against
// a full re-list (a fresh adapter lists on first contact) and the mesh's
// proxy populations against the VSR, under native churn, a
// re-description, a lapsed event lease, an event lost in a short
// outage, a LUS restart, a bus reset and a notification lost on the bus.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <set>

#include "core/adapters/havi_adapter.hpp"
#include "core/adapters/jini_adapter.hpp"
#include "testbed/home.hpp"

namespace hcm::core {
namespace {

using Listing = std::map<std::string, std::pair<InterfaceDesc, ValueMap>>;

Listing list_now(sim::Scheduler& sched, MiddlewareAdapter& adapter) {
  std::optional<Result<std::vector<LocalService>>> listed;
  adapter.list_services([&](Result<std::vector<LocalService>> r) {
    listed = std::move(r);
  });
  sim::run_until_done(sched, [&] { return listed.has_value(); });
  EXPECT_TRUE(listed.has_value() && listed->is_ok());
  Listing out;
  if (!listed.has_value() || !listed->is_ok()) return out;
  for (auto& s : listed->value()) {
    out[s.name] = {std::move(s.interface), std::move(s.attributes)};
  }
  return out;
}

InterfaceDesc gadget_interface(int version) {
  InterfaceDesc iface{"Gadget" + std::to_string(version),
                      {MethodDesc{"poke", {{"n", ValueType::kInt}},
                                  ValueType::kInt, false}}};
  for (int v = 0; v < version; ++v) {
    iface.methods.push_back(
        MethodDesc{"extra" + std::to_string(v), {}, ValueType::kBool, false});
  }
  return iface;
}

class NativeFeedTest : public ::testing::Test {
 protected:
  static testbed::SmartHomeOptions options() {
    testbed::SmartHomeOptions o;
    o.include_mail_island = false;
    return o;
  }

  void SetUp() override { ASSERT_TRUE(home.refresh().is_ok()); }

  void settle() { sched.run_for(sim::milliseconds(20)); }

  // A full re-list: a fresh adapter lists on first contact.
  Listing relisted_jini() {
    JiniAdapter fresh(home.net, home.jini_gw->id(), home.lookup->endpoint(),
                      /*export_port=*/4199);
    EXPECT_TRUE(fresh.start().is_ok());
    return list_now(sched, fresh);
  }
  Listing relisted_havi() {
    HaviAdapter fresh(home.fav->messaging, home.fav->registry.seid());
    return list_now(sched, fresh);
  }

  // The live adapters answer exactly what a re-list answers.
  void expect_feeds_match_relist() {
    settle();
    EXPECT_EQ(list_now(sched, *home.jini_adapter), relisted_jini());
    EXPECT_EQ(list_now(sched, *home.havi_adapter), relisted_havi());
  }

  // After refreshes: the VSR holds each native island's listing, and
  // every PCM imports each foreign entry at the VSR's digest (X10 may
  // refuse an import, but never keeps a stale one).
  void expect_mesh_converged() {
    ASSERT_TRUE(home.refresh().is_ok());
    ASSERT_TRUE(home.refresh().is_ok());
    VsrClient checker(home.net, home.vsr_node->id(), home.vsr->endpoint());
    std::optional<Result<std::vector<VsrEntry>>> entries;
    checker.list_all([&](auto r) { entries = std::move(r); });
    sim::run_until_done(sched, [&] { return entries.has_value(); });
    ASSERT_TRUE(entries.has_value() && entries->is_ok());
    std::map<std::string, std::set<std::string>> published;
    for (const auto& e : entries->value()) published[e.origin].insert(e.name);
    std::set<std::string> jini_names, havi_names;
    for (const auto& [name, desc] : relisted_jini()) jini_names.insert(name);
    for (const auto& [name, desc] : relisted_havi()) havi_names.insert(name);
    EXPECT_EQ(published["jini-island"], jini_names);
    EXPECT_EQ(published["havi-island"], havi_names);
    for (const char* island : {"jini-island", "havi-island", "x10-island"}) {
      const Pcm& pcm = *home.meta->island(island)->pcm;
      std::size_t foreign = 0;
      for (const auto& e : entries->value()) {
        if (e.origin == island) continue;
        ++foreign;
        const std::string digest = pcm.imported_digest(e.name);
        if (digest.empty() && std::string(island) == "x10-island") continue;
        EXPECT_EQ(digest, e.digest) << island << " imports " << e.name;
      }
      if (std::string(island) != "x10-island") {
        EXPECT_EQ(pcm.imported_count(), foreign) << island;
      }
    }
  }

  // Native Jini services the tests register, on the laserdisc's node.
  void join_jini(const std::string& name, int version) {
    jini::ServiceItem item;
    item.service_id = name;
    item.name = name;
    item.interface = gadget_interface(version);
    item.endpoint = {home.laserdisc_node->id(), 4170};
    item.attributes = ValueMap{{"version", Value(version)}};
    // A lease no test outlives: no renewal is in flight when a
    // registrar is replaced or destroyed.
    auto registrar = std::make_unique<jini::Registrar>(
        home.net, home.laserdisc_node->id(), home.lookup->endpoint(),
        std::move(item), jini::LookupService::kMaxLease);
    std::optional<Status> joined;
    registrar->join([&](const Status& s) { joined = s; });
    sim::run_until_done(sched, [&] { return joined.has_value(); });
    ASSERT_TRUE(joined.has_value() && joined->is_ok());
    registrars_[name] = std::move(registrar);
  }
  void cancel_jini(const std::string& name) {
    auto it = registrars_.find(name);
    ASSERT_NE(it, registrars_.end());
    std::optional<Status> cancelled;
    it->second->cancel([&](const Status& s) { cancelled = s; });
    sim::run_until_done(sched, [&] { return cancelled.has_value(); });
    registrars_.erase(it);
  }

  // Native HAVi FCM records, registered on the camera's node.
  void register_fcm(const std::string& name, int version) {
    havi::Seid seid;
    if (auto it = fcm_seids_.find(name); it != fcm_seids_.end()) {
      seid = it->second;
    } else {
      seid = home.camera_ms->register_element(
          [](const std::string&, const ValueList&, InvokeResultFn done) {
            done(Value(true));
          });
      fcm_seids_[name] = seid;
    }
    ValueMap attrs{{havi::kAttrSeType, Value("FCM")},
                   {havi::kAttrDeviceClass, Value("GADGET")},
                   {havi::kAttrName, Value(name)},
                   {havi::kAttrInterface,
                    interface_to_value(gadget_interface(version))}};
    havi::RegistryClient rc(*home.camera_ms, home.camera_dcm->seid(),
                            home.fav->registry.seid());
    std::optional<Status> done;
    rc.register_element(seid, attrs, [&](const Status& s) { done = s; });
    sim::run_until_done(sched, [&] { return done.has_value(); });
    ASSERT_TRUE(done.has_value() && done->is_ok());
  }
  void unregister_fcm(const std::string& name) {
    auto it = fcm_seids_.find(name);
    ASSERT_NE(it, fcm_seids_.end());
    havi::RegistryClient rc(*home.camera_ms, home.camera_dcm->seid(),
                            home.fav->registry.seid());
    std::optional<Status> done;
    rc.unregister_element(it->second, [&](const Status& s) { done = s; });
    sim::run_until_done(sched, [&] { return done.has_value(); });
    home.camera_ms->unregister_element(it->second);
    fcm_seids_.erase(it);
  }

  sim::Scheduler sched;
  testbed::SmartHome home{sched, options()};
  std::map<std::string, std::unique_ptr<jini::Registrar>> registrars_;
  std::map<std::string, havi::Seid> fcm_seids_;
};

TEST_F(NativeFeedTest, ZeroChangeRoundSendsNoNativeListing) {
  expect_mesh_converged();
  const auto lookups = home.lookup->lookups_served();
  const auto queries = home.fav->registry.queries_served();
  const auto jini_relists = home.jini_adapter->relists();
  const auto havi_relists = home.havi_adapter->relists();
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(home.refresh().is_ok());
  }
  EXPECT_EQ(home.lookup->lookups_served(), lookups);
  EXPECT_EQ(home.fav->registry.queries_served(), queries);
  EXPECT_EQ(home.jini_adapter->relists(), jini_relists);
  EXPECT_EQ(home.havi_adapter->relists(), havi_relists);
}

TEST_F(NativeFeedTest, UnknownNameFailsAtOnceWithoutALookup) {
  const auto lookups = home.lookup->lookups_served();
  const auto queries = home.fav->registry.queries_served();
  for (MiddlewareAdapter* adapter :
       std::vector<MiddlewareAdapter*>{home.jini_adapter, home.havi_adapter}) {
    std::optional<Result<Value>> result;
    adapter->invoke("no-such-service", "poke", {},
                    [&](Result<Value> r) { result = std::move(r); });
    ASSERT_TRUE(result.has_value()) << adapter->middleware_name();
    EXPECT_EQ(result->status().code(), StatusCode::kNotFound);
  }
  settle();
  EXPECT_EQ(home.lookup->lookups_served(), lookups);
  EXPECT_EQ(home.fav->registry.queries_served(), queries);
}

TEST_F(NativeFeedTest, SeededNativeChurnMatchesAFullRelist) {
  std::mt19937_64 rng(7);
  std::vector<std::string> jini_live, havi_live;
  int next = 0;
  const auto lookups = home.lookup->lookups_served();
  for (int round = 0; round < 8; ++round) {
    for (int op = 0; op < 3; ++op) {
      const auto dice = rng() % 4;
      if (dice == 0 || jini_live.empty()) {
        jini_live.push_back("gadget-" + std::to_string(next++));
        join_jini(jini_live.back(), 0);
      } else if (dice == 1) {
        const std::size_t k = rng() % jini_live.size();
        cancel_jini(jini_live[k]);
        jini_live.erase(jini_live.begin() + static_cast<long>(k));
      } else if (dice == 2 || havi_live.empty()) {
        havi_live.push_back("fcm-" + std::to_string(next++));
        register_fcm(havi_live.back(), 0);
      } else {
        const std::size_t k = rng() % havi_live.size();
        unregister_fcm(havi_live[k]);
        havi_live.erase(havi_live.begin() + static_cast<long>(k));
      }
    }
    expect_feeds_match_relist();
    expect_mesh_converged();
  }
  // The live adapter never went back to the LUS: every lookup served
  // came from the re-list oracles (two per round).
  EXPECT_EQ(home.jini_adapter->relists(), 1u);
  EXPECT_EQ(home.lookup->lookups_served(), lookups + 8 * 2);
}

TEST_F(NativeFeedTest, ReRegistrationWithANewInterfaceReachesTheListing) {
  join_jini("gadget-r", 0);
  register_fcm("fcm-r", 0);
  expect_feeds_match_relist();
  // Same names, new descriptions. The old registrar's lease was
  // replaced; it goes without a renewal in flight.
  registrars_.erase("gadget-r");
  join_jini("gadget-r", 1);
  register_fcm("fcm-r", 1);
  expect_feeds_match_relist();
  settle();
  EXPECT_EQ(list_now(sched, *home.jini_adapter)["gadget-r"].first,
            gadget_interface(1));
  EXPECT_EQ(list_now(sched, *home.havi_adapter)["fcm-r"].first,
            gadget_interface(1));
  expect_mesh_converged();
}

TEST_F(NativeFeedTest, LapsedEventLeaseRelists) {
  expect_mesh_converged();
  const auto relists = home.jini_adapter->relists();
  // The gateway drops off the LAN past the feed lease: its renewal
  // fails and the LUS lets the registration lapse, so the REGISTERED
  // event of a service joining meanwhile never reaches the adapter.
  home.jini_gw->set_up(false);
  sched.run_for(sim::seconds(10));
  join_jini("gadget-l", 0);
  sched.run_for(JiniAdapter::kFeedLease + sim::seconds(10));
  EXPECT_EQ(home.lookup->listener_count(), 0u);
  home.jini_gw->set_up(true);
  expect_feeds_match_relist();
  EXPECT_EQ(list_now(sched, *home.jini_adapter).count("gadget-l"), 1u);
  EXPECT_GT(home.jini_adapter->relists(), relists);
  expect_mesh_converged();
}

TEST_F(NativeFeedTest, EventLostInAShortOutageIsFoundAtTheNextRenewal) {
  expect_mesh_converged();
  const auto relists = home.jini_adapter->relists();
  // The gateway drops off the LAN for far less than the feed lease while
  // a service joins. Its REGISTERED event is lost, no later event shows
  // a gap, and the event registration itself survives.
  home.jini_gw->set_up(false);
  join_jini("gadget-o", 0);
  sched.run_for(sim::seconds(1));
  home.jini_gw->set_up(true);
  settle();
  EXPECT_EQ(home.lookup->listener_count(), 1u);  // the feed still holds
  EXPECT_EQ(list_now(sched, *home.jini_adapter).count("gadget-o"), 0u);
  EXPECT_LT(home.jini_adapter->feed_seq(), home.lookup->seq());
  // The next renewal reports the LUS's change number, ahead of the feed.
  sched.run_for(JiniAdapter::kFeedLease / 2);
  expect_feeds_match_relist();
  EXPECT_EQ(list_now(sched, *home.jini_adapter).count("gadget-o"), 1u);
  EXPECT_EQ(home.jini_adapter->relists(), relists + 1);
  expect_mesh_converged();
}

TEST_F(NativeFeedTest, LookupServiceRestartRelists) {
  expect_mesh_converged();
  const auto relists = home.jini_adapter->relists();
  // The LUS process restarts and forgets everything; services rejoin
  // as their renewals fail. A service joining the new incarnation
  // fires its event to no listener: the adapter's registration is gone.
  home.lookup->stop();
  ASSERT_TRUE(home.lookup->start().is_ok());
  EXPECT_EQ(home.lookup->service_count(), 0u);
  join_jini("gadget-s", 0);
  // The feed's renewal is refused by the new incarnation (kNotFound).
  sched.run_for(JiniAdapter::kFeedLease / 2 + sim::seconds(5));
  expect_feeds_match_relist();
  const Listing live = list_now(sched, *home.jini_adapter);
  EXPECT_EQ(live.count("gadget-s"), 1u);
  EXPECT_EQ(live.count("laserdisc-1"), 1u);
  EXPECT_GT(home.jini_adapter->relists(), relists);
  expect_mesh_converged();
}

TEST_F(NativeFeedTest, BusResetRelistsTheRegistry) {
  expect_mesh_converged();
  const auto relists = home.havi_adapter->relists();
  register_fcm("fcm-b", 0);
  home.firewire->reset_bus();
  settle();
  expect_feeds_match_relist();
  EXPECT_EQ(home.havi_adapter->relists(), relists + 1);
  expect_mesh_converged();
}

TEST_F(NativeFeedTest, BusResetRecoversAChangeTheFeedLost) {
  // An adapter away from the FAV hears the Event Manager over the bus.
  // Lose the notification of one registration, then reset the bus: the
  // NetworkReset re-list brings the lost FCM back.
  HaviAdapter remote(*home.vcr_ms, home.fav->registry.seid());
  ASSERT_EQ(list_now(sched, remote), relisted_havi());
  // Registered from the FAV itself, so only the Event Manager's
  // notification to the remote adapter crosses the (lossy) bus.
  auto& fav = home.fav->messaging;
  const havi::Seid seid = fav.register_element(
      [](const std::string&, const ValueList&, InvokeResultFn done) {
        done(Value(true));
      });
  havi::RegistryClient rc(fav, seid, home.fav->registry.seid());
  home.firewire->set_drop_probability(1.0);
  std::optional<Status> registered;
  rc.register_element(
      seid,
      ValueMap{{havi::kAttrSeType, Value("FCM")},
               {havi::kAttrName, Value("fcm-lost")},
               {havi::kAttrInterface, interface_to_value(gadget_interface(0))}},
      [&](const Status& s) { registered = s; });
  sim::run_until_done(sched, [&] { return registered.has_value(); });
  ASSERT_TRUE(registered->is_ok());
  settle();
  home.firewire->set_drop_probability(0.0);
  EXPECT_EQ(list_now(sched, remote).count("fcm-lost"), 0u);
  home.firewire->reset_bus();
  settle();
  EXPECT_EQ(list_now(sched, remote), relisted_havi());
  EXPECT_EQ(list_now(sched, remote).count("fcm-lost"), 1u);
}

TEST_F(NativeFeedTest, RegistryEventLostOnTheBusIsFoundByThePeriodicCheck) {
  HaviAdapter remote(*home.vcr_ms, home.fav->registry.seid());
  ASSERT_EQ(list_now(sched, remote), relisted_havi());
  const auto relists = remote.relists();
  // As above, but no bus reset follows the lost notification.
  auto& fav = home.fav->messaging;
  const havi::Seid seid = fav.register_element(
      [](const std::string&, const ValueList&, InvokeResultFn done) {
        done(Value(true));
      });
  havi::RegistryClient rc(fav, seid, home.fav->registry.seid());
  home.firewire->set_drop_probability(1.0);
  std::optional<Status> registered;
  rc.register_element(
      seid,
      ValueMap{{havi::kAttrSeType, Value("FCM")},
               {havi::kAttrName, Value("fcm-lost")},
               {havi::kAttrInterface, interface_to_value(gadget_interface(0))}},
      [&](const Status& s) { registered = s; });
  sim::run_until_done(sched, [&] { return registered.has_value(); });
  ASSERT_TRUE(registered->is_ok());
  settle();
  home.firewire->set_drop_probability(0.0);
  // Within a check period the listing answers from the stale set.
  EXPECT_EQ(list_now(sched, remote).count("fcm-lost"), 0u);
  EXPECT_EQ(remote.relists(), relists);
  // Past it, a listing asks the Registry for its change number, finds
  // the set behind, and the next listing re-lists.
  sched.run_for(ChangeFeed::kCheckPeriod);
  (void)list_now(sched, remote);
  settle();
  EXPECT_EQ(list_now(sched, remote), relisted_havi());
  EXPECT_EQ(list_now(sched, remote).count("fcm-lost"), 1u);
  EXPECT_EQ(remote.relists(), relists + 1);
}

TEST_F(NativeFeedTest, DestroyingAnAdapterMidRelistIsSafe) {
  // The re-list's reply arrives after the adapter is gone.
  auto jini = std::make_unique<JiniAdapter>(
      home.net, home.jini_gw->id(), home.lookup->endpoint(), 4198);
  ASSERT_TRUE(jini->start().is_ok());
  auto havi = std::make_unique<HaviAdapter>(home.fav->messaging,
                                            home.fav->registry.seid());
  bool answered = false;
  jini->list_services([&](auto) { answered = true; });
  havi->list_services([&](auto) { answered = true; });
  // The Event Manager has the subscriptions; their replies are pending.
  sched.run_for(sim::microseconds(15));
  jini.reset();
  havi.reset();
  settle();
  EXPECT_FALSE(answered);
  EXPECT_EQ(home.lookup->listener_count(), 1u);  // the home's own feed
}

}  // namespace
}  // namespace hcm::core
