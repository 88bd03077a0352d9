// UddiRegistry <-> VsrStore adjacency (ISSUE 7): a store-backed
// registry restart resumes the same {epoch, seq}, so warm UddiClient
// cursors keep delta-syncing with ZERO snapshot fallbacks; a corrupted
// log tail degrades to the ordinary epoch-bump resync instead of
// crashing or serving rolled-back state silently.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "soap/uddi.hpp"
#include "store/delta.hpp"
#include "store/pack.hpp"
#include "store/vsr_store.hpp"
#include "tests/soap/registry_find.hpp"
#include "tests/store/temp_dir.hpp"

namespace hcm::soap {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

class UddiStoreTest : public ::testing::Test {
 protected:
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
    start_registry();
    client = std::make_unique<UddiClient>(
        net, island_node->id(), net::Endpoint{registry_node->id(), 80});
  }

  void start_registry() {
    store::VsrStoreOptions opts;
    opts.dir = dir.file("store");
    opts.fsync = store::RecordLog::FsyncPolicy::kNone;  // sim-time tests
    store = std::make_unique<store::VsrStore>(opts);
    ASSERT_TRUE(store->open().is_ok());
    registry = std::make_unique<UddiRegistry>(
        *http_server, sched, "/uddi", UddiRegistry::kDefaultJournalCapacity,
        store.get());
  }

  // The registry host restarting: tear down the registry AND its store
  // handle, then reopen both over the same directory.
  void restart_registry() {
    registry.reset();
    store.reset();
    start_registry();
  }

  Status publish(const std::string& name, const std::string& category) {
    RegistryEntry e;
    e.name = name;
    e.category = category;
    e.origin = "jini-island";
    e.wsdl = "<definitions name=\"" + category + "\"><service name=\"" +
             name + "\"/></definitions>";
    std::optional<Status> result;
    client->publish(e, 0, [&](const Status& s) { result = s; });
    sched.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(internal_error("no result"));
  }

  Result<RegistryDelta> sync() {
    std::optional<Result<RegistryDelta>> out;
    client->changes_since([&](Result<RegistryDelta> r) { out = std::move(r); });
    sched.run();
    EXPECT_TRUE(out.has_value());
    return out.value_or(internal_error("no result"));
  }

  store::test::TempDir dir;
  sim::Scheduler sched;
  net::Network net{sched};
  net::Node* registry_node = nullptr;
  net::Node* island_node = nullptr;
  std::unique_ptr<http::HttpServer> http_server;
  std::unique_ptr<store::VsrStore> store;
  std::unique_ptr<UddiRegistry> registry;
  std::unique_ptr<UddiClient> client;
};

TEST_F(UddiStoreTest, StoreBackedRestartResumesEpochWithZeroFallbacks) {
  ASSERT_TRUE(registry->store_backed());
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(publish("lamp-1", "Switchable").is_ok());
  auto first = sync();
  ASSERT_TRUE(first.is_ok());
  EXPECT_TRUE(first.value().full);  // cold client: one expected snapshot
  EXPECT_EQ(client->full_syncs(), 1u);

  const std::uint64_t epoch_before = registry->epoch();
  const std::uint64_t seq_before = registry->latest_seq();
  restart_registry();

  // Same incarnation, replayed from disk.
  EXPECT_EQ(registry->epoch(), epoch_before);
  EXPECT_EQ(registry->latest_seq(), seq_before);
  EXPECT_EQ(registry->store_recovered_entries(), 2u);
  EXPECT_EQ(registry->size(), 2u);

  // The warm cursor keeps working: the acceptance criterion is ZERO
  // additional snapshot fallbacks across a store-backed restart.
  ASSERT_TRUE(publish("fan-1", "Switchable").is_ok());
  auto delta = sync();
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  EXPECT_FALSE(delta.value().full);
  ASSERT_EQ(delta.value().changes.size(), 1u);
  EXPECT_EQ(delta.value().changes[0].name, "fan-1");
  EXPECT_EQ(client->full_syncs(), 1u);
  EXPECT_EQ(client->delta_syncs(), 1u);

  // And the recovered entries kept their bodies.
  auto looked = find_entry(*client, sched, "vcr-1");
  ASSERT_TRUE(looked.has_value());
  ASSERT_TRUE(looked->is_ok());
  EXPECT_EQ(looked->value().digest, wsdl_digest(looked->value().wsdl));
}

TEST_F(UddiStoreTest, RepeatedRestartsStayOnTheSameEpoch) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(sync().is_ok());
  const std::uint64_t epoch_before = registry->epoch();
  for (int i = 0; i < 3; ++i) {
    restart_registry();
    EXPECT_EQ(registry->epoch(), epoch_before) << "restart " << i;
    auto delta = sync();
    ASSERT_TRUE(delta.is_ok());
    EXPECT_FALSE(delta.value().full) << "restart " << i;
  }
  EXPECT_EQ(client->full_syncs(), 1u);
}

TEST_F(UddiStoreTest, CorruptedLogTailBumpsEpochAndFallsBackToSnapshot) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(publish("lamp-1", "Switchable").is_ok());
  ASSERT_TRUE(sync().is_ok());
  const std::uint64_t epoch_before = registry->epoch();

  registry.reset();
  store.reset();
  // Tear 25 bytes off the committed log tail: some acked state is gone,
  // so resuming the old epoch would serve silently rolled-back data.
  const std::string log_path = dir.file("store") + "/log";
  const std::string bytes = read_file(log_path);
  ASSERT_GT(bytes.size(), 25u);
  write_file(log_path, bytes.substr(0, bytes.size() - 25));
  start_registry();

  // Degraded, not dead: the surviving prefix is served under a bumped
  // epoch so warm cursors are detectably stale.
  EXPECT_EQ(registry->epoch(), epoch_before + 1);
  auto delta = sync();
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  EXPECT_TRUE(delta.value().full);  // ordinary snapshot-fallback resync
  EXPECT_EQ(client->full_syncs(), 2u);
  EXPECT_EQ(client->epoch(), registry->epoch());
}

TEST_F(UddiStoreTest, ResetCursorForcesFreshSnapshot) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(sync().is_ok());
  ASSERT_NE(client->cursor(), 0u);
  ASSERT_NE(client->epoch(), 0u);

  client->reset_cursor();
  EXPECT_EQ(client->cursor(), 0u);
  EXPECT_EQ(client->epoch(), 0u);
  // The digest cache survives a reset — it is content-addressed.
  EXPECT_GT(client->digest_cache_size(), 0u);

  auto delta = sync();
  ASSERT_TRUE(delta.is_ok());
  EXPECT_TRUE(delta.value().full);
  EXPECT_EQ(client->full_syncs(), 2u);
}

TEST_F(UddiStoreTest, WriteThroughSurvivesUnpublishAndRepublish) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  std::optional<Status> removed;
  client->unpublish("vcr-1", [&](const Status& s) { removed = s; });
  sched.run();
  ASSERT_TRUE(removed.has_value());
  ASSERT_TRUE(removed->is_ok());
  ASSERT_TRUE(publish("lamp-1", "Switchable").is_ok());

  restart_registry();
  EXPECT_EQ(registry->size(), 1u);
  EXPECT_EQ(registry->store_recovered_entries(), 1u);
  EXPECT_EQ(registry->store_errors(), 0u);
  auto looked = find_entry(*client, sched, "lamp-1");
  ASSERT_TRUE(looked.has_value());
  EXPECT_TRUE(looked->is_ok());
}

TEST_F(UddiStoreTest, LiveEntryInCyclicPackIsDroppedAndBumpsEpoch) {
  ASSERT_TRUE(publish("vcr-1", "VcrControl").is_ok());
  ASSERT_TRUE(sync().is_ok());
  const std::uint64_t epoch_before = registry->epoch();
  const std::uint64_t seq_before = registry->latest_seq();
  registry.reset();
  store.reset();

  // Plant a pack whose two entries are deltas on each other, and a
  // committed live entry whose digest points into it.
  const std::string store_dir = dir.file("store");
  store::PackWriter pack;
  pack.add_delta("aaaa", "bbbb", store::delta_encode("bbbb", "aaaa"));
  pack.add_delta("bbbb", "aaaa", store::delta_encode("aaaa", "bbbb"));
  ASSERT_TRUE(pack.write(store_dir + "/pack-000001.pack").is_ok());
  {
    store::VsrStoreOptions opts;
    opts.dir = store_dir;
    opts.fsync = store::RecordLog::FsyncPolicy::kNone;
    store::VsrStore planted(opts);
    ASSERT_TRUE(planted.open().is_ok());
    // The digest is already packed, so no body record is staged.
    planted.record_upsert(store::UpsertRecord{seq_before + 1, "loop-1",
                                              "Switchable", "jini-island",
                                              "aaaa", 0},
                          "");
    ASSERT_TRUE(planted.commit().is_ok());
  }
  start_registry();

  // The unresolvable entry is lost state: dropped, and the epoch bumps
  // so warm cursors resync.
  EXPECT_EQ(registry->epoch(), epoch_before + 1);
  EXPECT_EQ(registry->size(), 1u);
  EXPECT_EQ(registry->store_recovered_entries(), 1u);
  auto delta = sync();
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  EXPECT_TRUE(delta.value().full);
}

TEST_F(UddiStoreTest, DeepChainFromUncappedCompactionKeepsItsEntry) {
  // A store written before compaction capped same-batch chains: vcr-1
  // published 50 times, its body at the end of a 49-delta chain
  // (tests/store/fixtures/deep-chain). A restart adopts it as is.
  registry.reset();
  store.reset();
  const std::string store_dir = dir.file("store");
  std::filesystem::remove_all(store_dir);
  std::filesystem::copy(
      std::string(HCM_SOURCE_DIR) + "/tests/store/fixtures/deep-chain",
      store_dir);
  start_registry();

  EXPECT_EQ(registry->epoch(), 1u);
  EXPECT_EQ(registry->latest_seq(), 50u);
  EXPECT_EQ(registry->size(), 1u);
  EXPECT_EQ(registry->store_recovered_entries(), 1u);
  auto looked = find_entry(*client, sched, "vcr-1");
  ASSERT_TRUE(looked.has_value());
  ASSERT_TRUE(looked->is_ok()) << looked->status().to_string();
  EXPECT_NE(looked->value().wsdl.find("http://fav:8000/r49"),
            std::string::npos);
  EXPECT_EQ(looked->value().digest, wsdl_digest(looked->value().wsdl));
}

}  // namespace
}  // namespace hcm::soap
