// PCM-level VSR synchronization: delta refresh converging to the
// registry's own listing, cached WSDL publication (no per-refresh
// regeneration), O(1) origin lease renewal with fallback after registry
// loss, full-resync convergence after journal compaction and registry
// restarts (the first publish after a restart resent past the stale
// pooled connection), and services hosted on a PCM with no native
// listing leased and republished like native ones.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "core/pcm.hpp"
#include "core/vsg.hpp"
#include "core/vsr.hpp"

namespace hcm::core {
namespace {

InterfaceDesc switch_interface() {
  return InterfaceDesc{
      "Switchable",
      {MethodDesc{"turnOn", {}, ValueType::kBool, false},
       MethodDesc{"turnOff", {}, ValueType::kBool, false}}};
}

class FakeAdapter : public MiddlewareAdapter {
 public:
  [[nodiscard]] std::string middleware_name() const override { return "fake"; }

  void list_services(ServicesFn done) override {
    std::vector<LocalService> out;
    for (const auto& [name, s] : services_) out.push_back(s);
    done(std::move(out));
  }

  void invoke(const std::string&, const std::string&, const ValueList&,
              InvokeResultFn done) override {
    done(Value(true));
  }

  [[nodiscard]] Status export_service(const LocalService& service,
                                      ServiceHandler) override {
    exported_.insert(service.name);
    return Status::ok();
  }
  void unexport_service(const std::string& name) override {
    exported_.erase(name);
  }

  void add_service(const std::string& name) {
    LocalService s;
    s.name = name;
    s.interface = switch_interface();
    services_[name] = std::move(s);
  }
  void remove_service(const std::string& name) { services_.erase(name); }
  [[nodiscard]] const std::set<std::string>& exported() const {
    return exported_;
  }

 private:
  std::map<std::string, LocalService> services_;
  std::set<std::string> exported_;
};

// A standalone registry + N islands mesh. Plain struct (not the test
// fixture) so tests can spin up a second, independent mesh and compare
// converged proxy populations across them.
struct SyncMesh {
  struct IslandBox {
    std::unique_ptr<VirtualServiceGateway> vsg;
    std::unique_ptr<Pcm> pcm;
    FakeAdapter* adapter = nullptr;  // owned by pcm
  };

  [[nodiscard]] Status build(std::size_t islands, std::size_t services_each,
                             std::size_t journal_capacity =
                                 soap::UddiRegistry::kDefaultJournalCapacity) {
    journal_capacity_ = journal_capacity;
    backbone_ =
        &net.add_ethernet("backbone", sim::milliseconds(1), 10'000'000);
    vsr_node_ = &net.add_node("vsr-host");
    net.attach(*vsr_node_, *backbone_);
    vsr = std::make_unique<VsrServer>(net, vsr_node_->id(), 8000,
                                      journal_capacity_);
    if (auto s = vsr->start(); !s.is_ok()) return s;
    for (std::size_t i = 0; i < islands; ++i) {
      const std::string island = "island-" + std::to_string(i);
      auto& gw = net.add_node(island + "-gw");
      net.attach(gw, *backbone_);
      IslandBox box;
      box.vsg =
          std::make_unique<VirtualServiceGateway>(net, gw.id(), island);
      if (auto s = box.vsg->start(); !s.is_ok()) return s;
      auto adapter = std::make_unique<FakeAdapter>();
      box.adapter = adapter.get();
      for (std::size_t k = 0; k < services_each; ++k) {
        adapter->add_service(island + "-svc-" + std::to_string(k));
      }
      box.pcm = std::make_unique<Pcm>(net, *box.vsg, vsr->endpoint(),
                                      std::move(adapter));
      islands_.push_back(std::move(box));
    }
    return Status::ok();
  }

  // Registry host dies and comes back empty (fresh epoch, no entries).
  [[nodiscard]] Status restart_vsr() {
    vsr.reset();
    vsr = std::make_unique<VsrServer>(net, vsr_node_->id(), 8000,
                                      journal_capacity_);
    return vsr->start();
  }

  [[nodiscard]] Status refresh_round() {
    std::size_t remaining = islands_.size();
    Status first_error;
    for (auto& box : islands_) {
      box.pcm->refresh([&](const Status& s) {
        if (!s.is_ok() && first_error.is_ok()) first_error = s;
        --remaining;
      });
    }
    sim::run_until_done(sched, [&] { return remaining == 0; });
    return first_error;
  }

  [[nodiscard]] Status converge() {
    if (auto s = refresh_round(); !s.is_ok()) return s;
    return refresh_round();
  }

  // (island -> imported name -> digest), the full cross-island proxy
  // state; equality of two of these means the meshes converged to the
  // same populations.
  [[nodiscard]] std::map<std::string, std::map<std::string, std::string>>
  proxy_state() const {
    std::map<std::string, std::map<std::string, std::string>> out;
    for (const auto& box : islands_) {
      auto& mine = out[box.vsg->island_name()];
      for (const auto& name : box.adapter->exported()) {
        mine[name] = box.pcm->imported_digest(name);
      }
    }
    return out;
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::EthernetSegment* backbone_ = nullptr;
  net::Node* vsr_node_ = nullptr;
  std::size_t journal_capacity_ = soap::UddiRegistry::kDefaultJournalCapacity;
  std::unique_ptr<VsrServer> vsr;
  std::vector<IslandBox> islands_;
};

TEST(VsrSyncTest, DeltaImportsEveryForeignService) {
  SyncMesh mesh;
  ASSERT_TRUE(mesh.build(3, 2).is_ok());
  ASSERT_TRUE(mesh.converge().is_ok());
  for (const auto& box : mesh.islands_) {
    EXPECT_EQ(box.pcm->published_count(), 2u);
    EXPECT_EQ(box.pcm->imported_count(), 4u);  // 2 services x 2 peers
    EXPECT_EQ(box.adapter->exported().size(), 4u);
  }
  EXPECT_EQ(mesh.vsr->registry().size(), 6u);
}

TEST(VsrSyncTest, ImportsMatchTheRegistryListing) {
  SyncMesh mesh;
  ASSERT_TRUE(mesh.build(2, 3).is_ok());
  ASSERT_TRUE(mesh.converge().is_ok());

  // The registry's own listing, read by a client of its own, is the
  // oracle: each island imports exactly the entries of the other
  // origins, at their digests.
  auto& auditor = mesh.net.add_node("auditor");
  mesh.net.attach(auditor, *mesh.backbone_);
  VsrClient client(mesh.net, auditor.id(), mesh.vsr->endpoint());
  std::optional<Result<std::vector<VsrEntry>>> listed;
  client.list_all(
      [&](Result<std::vector<VsrEntry>> r) { listed = std::move(r); });
  sim::run_until_done(mesh.sched, [&] { return listed.has_value(); });
  ASSERT_TRUE(listed->is_ok()) << listed->status().to_string();
  ASSERT_EQ(listed->value().size(), 6u);

  std::map<std::string, std::map<std::string, std::string>> expected;
  for (const auto& box : mesh.islands_) {
    auto& theirs = expected[box.vsg->island_name()];
    for (const auto& entry : listed->value()) {
      if (entry.origin != box.vsg->island_name()) {
        theirs[entry.name] = entry.digest;
      }
    }
    EXPECT_EQ(theirs.size(), 3u);
  }
  EXPECT_EQ(mesh.proxy_state(), expected);
}

TEST(VsrSyncTest, RefreshRoundsReuseThePooledVsrConnections) {
  SyncMesh mesh;
  ASSERT_TRUE(mesh.build(3, 2).is_ok());
  ASSERT_TRUE(mesh.refresh_round().is_ok());
  // The first round publishes each island's two services together, on
  // two connections per PCM.
  EXPECT_EQ(mesh.vsr->connections_accepted(), 6u);
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(mesh.refresh_round().is_ok());
  }
  // renewOrigin and changesSince, one at a time, ride the pooled ones.
  EXPECT_EQ(mesh.vsr->connections_accepted(), 6u);
}

TEST(VsrSyncTest, FirstRoundPublicationsSpreadOverABoundedPool) {
  SyncMesh mesh;
  constexpr std::size_t kCap = soap::UddiClient::kMaxConnections;
  ASSERT_TRUE(mesh.build(2, kCap + 8).is_ok());
  ASSERT_TRUE(mesh.refresh_round().is_ok());
  // The first round publishes every entry of a PCM at once: they spread
  // over kMaxConnections per PCM (the rest queue), which later rounds
  // reuse.
  const auto opened = mesh.vsr->connections_accepted();
  EXPECT_EQ(opened, 2 * kCap);
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(mesh.refresh_round().is_ok());
  }
  EXPECT_EQ(mesh.vsr->connections_accepted(), opened);
}

TEST(VsrSyncTest, PublishedWsdlIsCachedNotRegenerated) {
  SyncMesh mesh;
  ASSERT_TRUE(mesh.build(2, 3).is_ok());
  ASSERT_TRUE(mesh.converge().is_ok());
  for (const auto& box : mesh.islands_) {
    EXPECT_EQ(box.pcm->wsdl_generations(), 3u);
  }
  // Steady-state refreshes emit nothing new.
  ASSERT_TRUE(mesh.refresh_round().is_ok());
  ASSERT_TRUE(mesh.refresh_round().is_ok());
  for (const auto& box : mesh.islands_) {
    EXPECT_EQ(box.pcm->wsdl_generations(), 3u);
  }
}

TEST(VsrSyncTest, SteadyStateRenewsLeasesWithoutRepublishing) {
  SyncMesh mesh;
  ASSERT_TRUE(mesh.build(2, 2).is_ok());
  ASSERT_TRUE(mesh.converge().is_ok());
  const auto publishes = mesh.vsr->registry().publishes();

  // Refresh well before the TTL lapses, then run past the original
  // expiry: the renewOrigin path must have kept everything alive
  // without any new journaled publish.
  mesh.sched.run_for(Pcm::kPublishTtl / 2);
  ASSERT_TRUE(mesh.refresh_round().is_ok());
  EXPECT_EQ(mesh.vsr->registry().publishes(), publishes);
  EXPECT_GT(mesh.vsr->registry().renewals(), 0u);
  mesh.sched.run_for(Pcm::kPublishTtl / 2 + sim::seconds(5));
  EXPECT_EQ(mesh.vsr->registry().size(), 4u);
  for (const auto& box : mesh.islands_) {
    EXPECT_EQ(box.pcm->renew_fallbacks(), 0u);
  }
}

TEST(VsrSyncTest, ServiceRemovalPropagates) {
  SyncMesh mesh;
  ASSERT_TRUE(mesh.build(2, 2).is_ok());
  ASSERT_TRUE(mesh.converge().is_ok());
  ASSERT_TRUE(mesh.islands_[1].pcm->has_imported("island-0-svc-0"));

  mesh.islands_[0].adapter->remove_service("island-0-svc-0");
  ASSERT_TRUE(mesh.converge().is_ok());
  EXPECT_FALSE(mesh.islands_[1].pcm->has_imported("island-0-svc-0"));
  EXPECT_EQ(mesh.islands_[1].adapter->exported().count("island-0-svc-0"), 0u);
  EXPECT_EQ(mesh.vsr->registry().size(), 3u);
}

TEST(VsrSyncTest, RegistryRestartConvergesToFreshBootState) {
  SyncMesh mesh;
  ASSERT_TRUE(mesh.build(2, 2).is_ok());
  ASSERT_TRUE(mesh.converge().is_ok());
  const auto before = mesh.proxy_state();
  ASSERT_FALSE(before.at("island-0").empty());

  ASSERT_TRUE(mesh.restart_vsr().is_ok());
  const Status first = mesh.refresh_round();
  ASSERT_TRUE(first.is_ok()) << first.to_string();
  ASSERT_TRUE(mesh.refresh_round().is_ok());

  // Imports resynchronized from a fresh epoch, and the proxy
  // populations match the pre-restart (= fresh boot) state.
  EXPECT_EQ(mesh.proxy_state(), before);
  EXPECT_EQ(mesh.vsr->registry().size(), 4u);

  // The O(1) renewal was refused by the empty registry (fallback to a
  // full republish); back on the cheap path afterwards.
  EXPECT_GT(mesh.islands_[0].pcm->renew_fallbacks(), 0u);
  const auto fallbacks = mesh.islands_[0].pcm->renew_fallbacks();
  ASSERT_TRUE(mesh.refresh_round().is_ok());
  EXPECT_EQ(mesh.islands_[0].pcm->renew_fallbacks(), fallbacks);
}

TEST(VsrSyncTest, FirstPublishAfterRegistryRestartIsResent) {
  SyncMesh mesh;
  ASSERT_TRUE(mesh.build(2, 2).is_ok());
  ASSERT_TRUE(mesh.converge().is_ok());

  // The first request island-0 sends after the restart is a publish,
  // and it rides a pooled connection the old registry closed. It must
  // be resent once on a fresh connection (every registry op is
  // idempotent), not fail the round.
  ASSERT_TRUE(mesh.restart_vsr().is_ok());
  mesh.islands_[0].adapter->add_service("island-0-late");
  const Status first = mesh.refresh_round();
  ASSERT_TRUE(first.is_ok()) << first.to_string();

  ASSERT_TRUE(mesh.converge().is_ok());
  EXPECT_EQ(mesh.vsr->registry().size(), 5u);
  EXPECT_TRUE(mesh.islands_[1].pcm->has_imported("island-0-late"));
}

TEST(VsrSyncTest, HostedServiceIsLeasedAndRepublished) {
  SyncMesh mesh;
  ASSERT_TRUE(mesh.build(2, 1).is_ok());
  std::optional<Status> published;
  ASSERT_TRUE(mesh.islands_[0]
                  .pcm
                  ->host_service(
                      "island-0-hosted", switch_interface(),
                      [](const std::string&, const ValueList&,
                         InvokeResultFn done) { done(Value(true)); },
                      [&](const Status& s) { published = s; })
                  .is_ok());
  ASSERT_TRUE(mesh.converge().is_ok());
  ASSERT_TRUE(published.has_value() && published->is_ok());
  EXPECT_TRUE(mesh.islands_[1].pcm->has_imported("island-0-hosted"));

  // No native listing names it, yet refreshes keep its lease through
  // the one renewOrigin call and never retire it.
  for (int round = 0; round < 4; ++round) {
    mesh.sched.run_for(Pcm::kPublishTtl / 2);
    ASSERT_TRUE(mesh.refresh_round().is_ok());
  }
  EXPECT_EQ(mesh.vsr->registry().size(), 3u);
  EXPECT_EQ(mesh.islands_[0].pcm->renew_fallbacks(), 0u);

  // A registry that lost everything gets the hosted entry back with the
  // native one: the refused renewal falls back to a full republish.
  ASSERT_TRUE(mesh.restart_vsr().is_ok());
  ASSERT_TRUE(mesh.converge().is_ok());
  EXPECT_GT(mesh.islands_[0].pcm->renew_fallbacks(), 0u);
  EXPECT_EQ(mesh.vsr->registry().size(), 3u);
  EXPECT_TRUE(mesh.islands_[1].pcm->has_imported("island-0-hosted"));
}

TEST(VsrSyncTest, JournalCompactionResyncConverges) {
  SyncMesh mesh;
  ASSERT_TRUE(
      mesh.build(2, 1, /*journal_capacity=*/2).is_ok());
  ASSERT_TRUE(mesh.converge().is_ok());

  // Enough churn on island-0 to blow past the tiny journal while
  // island-1 isn't looking: its next sync needs a full resync.
  for (int i = 0; i < 4; ++i) {
    mesh.islands_[0].adapter->add_service("island-0-extra-" +
                                          std::to_string(i));
  }
  mesh.islands_[0].adapter->remove_service("island-0-svc-0");
  ASSERT_TRUE(mesh.converge().is_ok());

  EXPECT_GT(mesh.vsr->registry().resyncs_required(), 0u);
  EXPECT_FALSE(mesh.islands_[1].pcm->has_imported("island-0-svc-0"));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(mesh.islands_[1].pcm->has_imported("island-0-extra-" +
                                                   std::to_string(i)));
  }
  // Same populations as a mesh booted directly into the final layout.
  SyncMesh fresh;
  ASSERT_TRUE(
      fresh.build(2, 0, /*journal_capacity=*/2).is_ok());
  for (int i = 0; i < 4; ++i) {
    fresh.islands_[0].adapter->add_service("island-0-extra-" +
                                           std::to_string(i));
  }
  fresh.islands_[1].adapter->add_service("island-1-svc-0");
  ASSERT_TRUE(fresh.converge().is_ok());
  EXPECT_EQ(mesh.proxy_state(), fresh.proxy_state());
}

}  // namespace
}  // namespace hcm::core
