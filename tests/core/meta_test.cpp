// MetaMiddleware orchestration behaviours: island bookkeeping, the
// auto-refresh loop (service dynamism propagating without manual
// sync), and graceful handling of add/remove edge cases.
#include <gtest/gtest.h>

#include "jini/registrar.hpp"
#include "testbed/home.hpp"

namespace hcm::testbed {
namespace {

TEST(MetaMiddlewareTest, IslandBookkeeping) {
  sim::Scheduler sched;
  SmartHome home(sched);
  EXPECT_EQ(home.meta->island_count(), 4u);
  ASSERT_NE(home.meta->island("jini-island"), nullptr);
  EXPECT_EQ(home.meta->island("jini-island")->name, "jini-island");
  EXPECT_EQ(home.meta->island("atlantis"), nullptr);
}

TEST(MetaMiddlewareTest, DuplicateIslandRejected) {
  sim::Scheduler sched;
  SmartHome home(sched);
  auto duplicate = home.meta->add_island(
      "jini-island", home.jini_gw->id(),
      std::make_unique<core::JiniAdapter>(home.net, home.jini_gw->id(),
                                          home.lookup->endpoint()));
  ASSERT_FALSE(duplicate.is_ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(home.meta->island_count(), 4u);
}

TEST(MetaMiddlewareTest, AutoRefreshPropagatesNewServices) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.refresh().is_ok());
  home.meta->start_auto_refresh(sim::seconds(30));

  // A new Jini service appears after the initial sync...
  net::BinaryRpcServer jini_server(home.net, home.laserdisc_node->id(), 4290,
                                   "jini");
  ASSERT_TRUE(jini_server.start().is_ok());
  jini_server.register_service(
      "md-1", [](const std::string&, const ValueList&, InvokeResultFn done) {
        done(Value(true));
      });
  jini::ServiceItem item;
  item.service_id = "md-1";
  item.name = "md-1";
  item.interface = InterfaceDesc{
      "MiniDisc", {MethodDesc{"play", {}, ValueType::kBool, false}}};
  item.endpoint = {home.laserdisc_node->id(), 4290};
  jini::Registrar registrar(home.net, home.laserdisc_node->id(),
                            home.lookup->endpoint(), item);
  registrar.join([](const Status&) {});

  // ...and becomes reachable from HAVi within ~two refresh periods,
  // with no manual sync call.
  sched.run_for(sim::seconds(70));
  std::optional<Result<Value>> r;
  home.havi_adapter->invoke("md-1", "play", {},
                            [&](Result<Value> v) { r = std::move(v); });
  sim::run_until_done(sched, [&] { return r.has_value(); });
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->is_ok()) << r->status().to_string();
  home.meta->stop_auto_refresh();
}

TEST(MetaMiddlewareTest, StopAutoRefreshStopsSyncing) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.refresh().is_ok());
  home.meta->start_auto_refresh(sim::seconds(30));
  sched.run_for(sim::seconds(40));
  home.meta->stop_auto_refresh();

  const auto size_before = home.vsr->registry().size();
  // Remove the laserdisc; with auto-refresh stopped, nothing retires
  // it from the VSR even after the publish TTL would have been renewed.
  home.laserdisc.reset();
  sched.run_for(sim::seconds(40));
  EXPECT_EQ(home.vsr->registry().size(), size_before);
}

TEST(MetaMiddlewareTest, RefreshAllOnEmptyMetaCompletes) {
  sim::Scheduler sched;
  net::Network net(sched);
  auto& vsr_host = net.add_node("vsr");
  auto& eth = net.add_ethernet("bb", sim::milliseconds(5), 10'000'000);
  net.attach(vsr_host, eth);
  core::VsrServer vsr(net, vsr_host.id());
  (void)vsr.start();
  core::MetaMiddleware meta(net, vsr.endpoint());
  std::optional<Status> done;
  meta.refresh_all([&](const Status& s) { done = s; });
  sim::run_until_done(sched, [&] { return done.has_value(); });
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->is_ok());
}

TEST(MetaMiddlewareTest, VsrDownFailsRefreshButFrameworkRecovers) {
  sim::Scheduler sched;
  SmartHome home(sched);
  ASSERT_TRUE(home.refresh().is_ok());

  home.vsr_node->set_up(false);
  auto status = home.refresh();
  EXPECT_FALSE(status.is_ok());

  // Existing proxies keep working (they hold direct VSG endpoints).
  std::optional<Result<Value>> r;
  home.jini_adapter->invoke("camera-1", "getStatus", {},
                            [&](Result<Value> v) { r = std::move(v); });
  sim::run_until_done(sched, [&] { return r.has_value(); });
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->is_ok());

  // VSR comes back: the next refresh succeeds again.
  home.vsr_node->set_up(true);
  EXPECT_TRUE(home.refresh().is_ok());
}

}  // namespace
}  // namespace hcm::testbed
