// Delta-synchronization behaviours of the UDDI registry: the change
// journal (publish/unpublish/lease-expiry all journaled), digest-based
// lease renewal, journal compaction forcing resync, registry restarts
// surfacing as fresh epochs, and WSDL body elision against the client's
// digest cache.
#include <gtest/gtest.h>

#include "soap/uddi.hpp"

namespace hcm::soap {
namespace {

// The origin fingerprint over (name, digest) pairs, in name order.
std::string fingerprint(const std::map<std::string, std::string>& digests) {
  FingerprintHasher hasher;
  for (const auto& [name, digest] : digests) hasher.add(name, digest);
  return hasher.finish();
}

class UddiDeltaTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kJournalCapacity = 4;

  void SetUp() override {
    registry_node = &net.add_node("vsr");
    island_node = &net.add_node("jini-gw");
    auto& eth =
        net.add_ethernet("backbone", sim::microseconds(500), 10'000'000);
    net.attach(*registry_node, eth);
    net.attach(*island_node, eth);
    http_server =
        std::make_unique<http::HttpServer>(net, registry_node->id(), 80);
    ASSERT_TRUE(http_server->start().is_ok());
    registry = std::make_unique<UddiRegistry>(*http_server, sched, "/uddi",
                                              kJournalCapacity);
    client = std::make_unique<UddiClient>(
        net, island_node->id(), net::Endpoint{registry_node->id(), 80});
  }

  // Simulates the registry host crashing and coming back empty: the new
  // incarnation gets a fresh epoch, so surviving client cursors are
  // detectably stale.
  void restart_registry() {
    registry.reset();
    registry = std::make_unique<UddiRegistry>(*http_server, sched, "/uddi",
                                              kJournalCapacity);
  }

  Status publish(const std::string& name, const std::string& category,
                 sim::Duration ttl = 0) {
    RegistryEntry e;
    e.name = name;
    e.category = category;
    e.origin = "jini-island";
    e.wsdl = wsdl_for(category);
    std::optional<Status> result;
    client->publish(e, ttl, [&](const Status& s) { result = s; });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no result"));
  }

  static std::string wsdl_for(const std::string& category) {
    return "<definitions name=\"" + category + "\"/>";
  }

  Result<RegistryDelta> sync() {
    std::optional<Result<RegistryDelta>> out;
    client->changes_since([&](Result<RegistryDelta> r) { out = std::move(r); });
    sched.run();
    EXPECT_TRUE(out.has_value());
    return out.value_or(internal_error("no result"));
  }

  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* registry_node = nullptr;
  net::Node* island_node = nullptr;
  std::unique_ptr<http::HttpServer> http_server;
  std::unique_ptr<UddiRegistry> registry;
  std::unique_ptr<UddiClient> client;
};

TEST_F(UddiDeltaTest, FirstSyncIsFullSnapshot) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(publish("lamp-1", "Switchable").is_ok());

  auto delta = sync();
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  EXPECT_TRUE(delta.value().full);
  ASSERT_EQ(delta.value().changes.size(), 2u);
  for (const auto& c : delta.value().changes) {
    EXPECT_EQ(c.kind, RegistryChange::Kind::kUpsert);
    EXPECT_FALSE(c.wsdl.empty());
    EXPECT_EQ(c.digest, wsdl_digest(c.wsdl));
  }
  EXPECT_EQ(registry->full_syncs(), 1u);
  EXPECT_EQ(client->epoch(), registry->epoch());
  EXPECT_EQ(client->cursor(), registry->latest_seq());
}

TEST_F(UddiDeltaTest, SteadyStateDeltaIsEmpty) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(sync().is_ok());

  auto delta = sync();
  ASSERT_TRUE(delta.is_ok());
  EXPECT_FALSE(delta.value().full);
  EXPECT_TRUE(delta.value().changes.empty());
  EXPECT_EQ(registry->delta_syncs(), 1u);
}

TEST_F(UddiDeltaTest, DeltaCarriesOnlyTouchedEntries) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(publish("lamp-1", "Switchable").is_ok());
  ASSERT_TRUE(sync().is_ok());

  ASSERT_TRUE(publish("fan-1", "Switchable").is_ok());
  auto delta = sync();
  ASSERT_TRUE(delta.is_ok());
  EXPECT_FALSE(delta.value().full);
  ASSERT_EQ(delta.value().changes.size(), 1u);
  EXPECT_EQ(delta.value().changes[0].name, "fan-1");
  EXPECT_EQ(delta.value().changes[0].kind, RegistryChange::Kind::kUpsert);
}

TEST_F(UddiDeltaTest, LeaseExpiryIsJournaledAsRemove) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl", sim::seconds(10)).is_ok());
  ASSERT_TRUE(sync().is_ok());

  sched.run_for(sim::seconds(11));
  auto delta = sync();
  ASSERT_TRUE(delta.is_ok());
  EXPECT_FALSE(delta.value().full);
  ASSERT_EQ(delta.value().changes.size(), 1u);
  EXPECT_EQ(delta.value().changes[0].kind, RegistryChange::Kind::kRemove);
  EXPECT_EQ(delta.value().changes[0].name, "vcr-1");
}

TEST_F(UddiDeltaTest, UnchangedRepublishIsRenewalNotChange) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl", sim::seconds(60)).is_ok());
  ASSERT_TRUE(sync().is_ok());

  // Same name, same content, lease still live: a lease renewal. No
  // journal record, so synchronizing clients see nothing.
  sched.run_for(sim::seconds(30));
  ASSERT_TRUE(publish("vcr-1", "VcrControl", sim::seconds(60)).is_ok());
  EXPECT_EQ(registry->renewals(), 1u);
  auto delta = sync();
  ASSERT_TRUE(delta.is_ok());
  EXPECT_TRUE(delta.value().changes.empty());

  // And the renewed lease holds past the original expiry.
  sched.run_for(sim::seconds(45));
  EXPECT_EQ(registry->size(), 1u);
}

TEST_F(UddiDeltaTest, SnapshotListingARemovalIsRejected) {
  // A full reply is the registry's live set, which the PCM converges to;
  // a removal inside one is a malformed reply.
  SoapService fake(*http_server, "/fake");
  fake.register_method(
      "changesSince", [](const NamedValues&, CallResultFn done) {
        const Value removal(ValueMap{{"kind", Value(std::string("remove"))},
                                     {"name", Value(std::string("vcr-1"))}});
        done(Value(ValueMap{{"epoch", Value(std::int64_t{1})},
                            {"cursor", Value(std::int64_t{1})},
                            {"full", Value(true)},
                            {"resync", Value(false)},
                            {"changes", Value(ValueList{removal})}}));
      });
  UddiClient peer(net, island_node->id(),
                  net::Endpoint{registry_node->id(), 80}, "/fake");
  std::optional<Result<RegistryDelta>> out;
  peer.changes_since([&](Result<RegistryDelta> r) { out = std::move(r); });
  sched.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status().code(), StatusCode::kProtocolError);
}

TEST_F(UddiDeltaTest, RenewOriginBulkRenewsWithMatchingFingerprint) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl", sim::seconds(10)).is_ok());
  ASSERT_TRUE(publish("lamp-1", "Switchable", sim::seconds(10)).is_ok());
  std::map<std::string, std::string> digests{
      {"vcr-1", wsdl_digest(wsdl_for("VcrControl"))},
      {"lamp-1", wsdl_digest(wsdl_for("Switchable"))}};

  std::optional<Status> renewed;
  client->renew_origin("jini-island", fingerprint(digests),
                       sim::seconds(30),
                       [&](const Status& s) { renewed = s; });
  sched.run();
  ASSERT_TRUE(renewed.has_value());
  EXPECT_TRUE(renewed->is_ok()) << renewed->to_string();

  sched.run_for(sim::seconds(20));  // both original leases would be gone
  EXPECT_EQ(registry->size(), 2u);

  // A fingerprint over a diverged set is refused; unknown origins are
  // not found (both make the PCM fall back to a full republish).
  digests.erase("lamp-1");
  std::optional<Status> stale;
  client->renew_origin("jini-island", fingerprint(digests),
                       sim::seconds(30), [&](const Status& s) { stale = s; });
  sched.run();
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->code(), StatusCode::kInvalidArgument);

  std::optional<Status> ghost;
  client->renew_origin("atlantis", fingerprint(digests),
                       sim::seconds(30), [&](const Status& s) { ghost = s; });
  sched.run();
  ASSERT_TRUE(ghost.has_value());
  EXPECT_EQ(ghost->code(), StatusCode::kNotFound);
}

TEST_F(UddiDeltaTest, JournalStaysBounded) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(publish("svc-" + std::to_string(i), "X").is_ok());
  }
  EXPECT_LE(registry->journal_size(), kJournalCapacity);
  EXPECT_GT(registry->compacted_through(), 0u);
}

TEST_F(UddiDeltaTest, CompactionForcesTransparentResync) {
  ASSERT_TRUE(publish("svc-0", "X").is_ok());
  ASSERT_TRUE(sync().is_ok());

  // More changes than the journal holds: the client's cursor falls
  // behind the compaction horizon.
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(publish("svc-" + std::to_string(i), "X").is_ok());
  }
  auto delta = sync();
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  // The client fell back to a snapshot internally — callers just see an
  // authoritative full delta.
  EXPECT_TRUE(delta.value().full);
  EXPECT_EQ(delta.value().changes.size(), 9u);
  EXPECT_EQ(registry->resyncs_required(), 1u);
  EXPECT_EQ(registry->full_syncs(), 2u);

  // And the cursor is usable again afterwards.
  auto quiet = sync();
  ASSERT_TRUE(quiet.is_ok());
  EXPECT_FALSE(quiet.value().full);
  EXPECT_TRUE(quiet.value().changes.empty());
}

TEST_F(UddiDeltaTest, RegistryRestartForcesResnapshot) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(sync().is_ok());
  const auto old_epoch = registry->epoch();

  restart_registry();
  EXPECT_NE(registry->epoch(), old_epoch);
  ASSERT_TRUE(publish("lamp-1", "Switchable").is_ok());

  auto delta = sync();
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  EXPECT_TRUE(delta.value().full);
  ASSERT_EQ(delta.value().changes.size(), 1u);
  EXPECT_EQ(delta.value().changes[0].name, "lamp-1");
  EXPECT_EQ(client->epoch(), registry->epoch());
}

TEST_F(UddiDeltaTest, ResyncElidesBodiesTheClientAlreadyHolds) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(sync().is_ok());
  EXPECT_EQ(client->digest_cache_size(), 1u);

  // Restart wipes the registry; the same document is republished, so
  // the digest the client cached is still the live content.
  restart_registry();
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());

  const auto sent_before = registry->wsdl_bodies_sent();
  auto delta = sync();
  ASSERT_TRUE(delta.is_ok());
  EXPECT_TRUE(delta.value().full);
  ASSERT_EQ(delta.value().changes.size(), 1u);
  // The wire elided the body (client offered its digest), but the
  // delivered change is resolved from the cache.
  EXPECT_EQ(registry->wsdl_bodies_elided(), 1u);
  EXPECT_EQ(registry->wsdl_bodies_sent(), sent_before);
  EXPECT_EQ(delta.value().changes[0].wsdl, wsdl_for("VcrControl"));
}

TEST_F(UddiDeltaTest, FullSyncDropsUnreferencedCacheEntries) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(publish("lamp-1", "Switchable").is_ok());
  ASSERT_TRUE(sync().is_ok());
  EXPECT_EQ(client->digest_cache_size(), 2u);

  restart_registry();
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  client->reset_cursor();
  auto delta = sync();
  ASSERT_TRUE(delta.is_ok());
  EXPECT_TRUE(delta.value().full);
  // lamp-1's document is no longer referenced by any live entry.
  EXPECT_EQ(client->digest_cache_size(), 1u);
}

}  // namespace
}  // namespace hcm::soap
