// VsrStore facade: write-through staging, group commit, recovery that
// resumes the same {epoch, seq}, background compaction into delta
// packs, and the fsck/stats reports the hcm_store CLI prints.
#include "store/vsr_store.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "store/pack.hpp"
#include "tests/store/temp_dir.hpp"

namespace hcm::store {
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

VsrStoreOptions test_options(const test::TempDir& dir) {
  VsrStoreOptions o;
  o.dir = dir.file("store");
  o.fsync = RecordLog::FsyncPolicy::kNone;  // durability measured elsewhere
  o.journal_capacity = 8;
  return o;
}

std::string body_rev(const std::string& name, int rev) {
  // 50-revision churn shape: a large stable document with one hot field.
  return "<definitions name=\"" + name + "\">" + std::string(400, 'd') +
         "<endpoint uri=\"http://fav:8000/r" + std::to_string(rev) +
         "\"/></definitions>";
}

UpsertRecord upsert_for(std::uint64_t seq, const std::string& name,
                        const std::string& body) {
  UpsertRecord u;
  u.seq = seq;
  u.name = name;
  u.category = "Switchable";
  u.origin = "x10-island";
  u.digest = content_digest(body);
  u.expires_at = static_cast<std::int64_t>(seq) * 1000000;
  return u;
}

TEST(VsrStoreTest, FreshOpenReportsFreshAndEmptyDir) {
  test::TempDir dir;
  VsrStore store(test_options(dir));
  ASSERT_TRUE(store.open().is_ok());
  EXPECT_TRUE(store.recovered().fresh);
  EXPECT_FALSE(store.recovered().lost_tail);
  EXPECT_EQ(store.recovered().entries.size(), 0u);
  EXPECT_EQ(store.pack_count(), 0u);
}

TEST(VsrStoreTest, ReopenResumesSameEpochSeqEntriesAndJournal) {
  test::TempDir dir;
  const auto opts = test_options(dir);
  const std::string vcr = body_rev("vcr-1", 0);
  const std::string lamp = body_rev("lamp-1", 0);
  {
    VsrStore store(opts);
    ASSERT_TRUE(store.open().is_ok());
    store.record_epoch(7);
    store.record_upsert(upsert_for(1, "vcr-1", vcr), vcr);
    store.record_upsert(upsert_for(2, "lamp-1", lamp), lamp);
    RemoveRecord rm;
    rm.seq = 3;
    rm.name = "lamp-1";
    rm.digest = content_digest(lamp);
    store.record_remove(rm);
    ASSERT_TRUE(store.commit().is_ok());
  }
  VsrStore store(opts);
  ASSERT_TRUE(store.open().is_ok());
  const auto& rec = store.recovered();
  EXPECT_FALSE(rec.fresh);
  EXPECT_FALSE(rec.lost_tail);
  EXPECT_EQ(rec.epoch, 7u);
  EXPECT_EQ(rec.last_seq, 3u);
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_EQ(rec.entries[0], upsert_for(1, "vcr-1", vcr));
  ASSERT_EQ(rec.journal.size(), 3u);
  EXPECT_FALSE(rec.journal[0].remove);
  EXPECT_TRUE(rec.journal[2].remove);
  EXPECT_EQ(rec.journal[2].name, "lamp-1");
  auto body = store.body_for(content_digest(vcr));
  ASSERT_TRUE(body.is_ok());
  EXPECT_EQ(body.value(), vcr);
}

TEST(VsrStoreTest, TouchMovesExpiryAcrossRestartWithoutSeqBump) {
  test::TempDir dir;
  const auto opts = test_options(dir);
  const std::string body = body_rev("vcr-1", 0);
  {
    VsrStore store(opts);
    ASSERT_TRUE(store.open().is_ok());
    store.record_epoch(1);
    store.record_upsert(upsert_for(1, "vcr-1", body), body);
    store.record_touch("vcr-1", 999000000);
    ASSERT_TRUE(store.commit().is_ok());
  }
  VsrStore store(opts);
  ASSERT_TRUE(store.open().is_ok());
  ASSERT_EQ(store.recovered().entries.size(), 1u);
  EXPECT_EQ(store.recovered().entries[0].expires_at, 999000000);
  EXPECT_EQ(store.recovered().last_seq, 1u);  // renewals don't bump seq
}

TEST(VsrStoreTest, CompactRollsLogIntoPackAndPreservesState) {
  test::TempDir dir;
  const auto opts = test_options(dir);
  std::vector<std::string> bodies;
  {
    VsrStore store(opts);
    ASSERT_TRUE(store.open().is_ok());
    store.record_epoch(2);
    std::uint64_t seq = 0;
    for (int rev = 0; rev < 10; ++rev) {
      bodies.push_back(body_rev("vcr-1", rev));
      store.record_upsert(upsert_for(++seq, "vcr-1", bodies.back()),
                          bodies.back());
    }
    ASSERT_TRUE(store.commit().is_ok());
    const std::uint64_t log_before = store.log_bytes();
    ASSERT_TRUE(store.compact().is_ok());
    EXPECT_EQ(store.pack_count(), 1u);
    EXPECT_EQ(store.compactions(), 1u);
    // The log shrank to [epoch][checkpoint].
    EXPECT_LT(store.log_bytes(), log_before);
    // All ten revisions still materialize, through the pack.
    for (const auto& b : bodies) {
      auto got = store.body_for(content_digest(b));
      ASSERT_TRUE(got.is_ok());
      EXPECT_EQ(got.value(), b);
    }
  }
  VsrStore store(opts);
  ASSERT_TRUE(store.open().is_ok());
  const auto& rec = store.recovered();
  EXPECT_FALSE(rec.fresh);
  EXPECT_EQ(rec.epoch, 2u);
  EXPECT_EQ(rec.last_seq, 10u);
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_EQ(rec.entries[0].digest, content_digest(bodies.back()));
  EXPECT_EQ(rec.journal.size(), opts.journal_capacity);
  auto got = store.body_for(content_digest(bodies.back()));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), bodies.back());
}

TEST(VsrStoreTest, ThresholdTriggersCompactionAutomatically) {
  test::TempDir dir;
  auto opts = test_options(dir);
  opts.compact_threshold_bytes = 2048;  // a handful of bodies
  VsrStore store(opts);
  ASSERT_TRUE(store.open().is_ok());
  store.record_epoch(1);
  std::uint64_t seq = 0;
  for (int rev = 0; rev < 20; ++rev) {
    const std::string body = body_rev("vcr-1", rev);
    store.record_upsert(upsert_for(++seq, "vcr-1", body), body);
    ASSERT_TRUE(store.commit().is_ok());
  }
  EXPECT_GT(store.compactions(), 0u);
  EXPECT_GT(store.pack_count(), 0u);
  EXPECT_LT(store.log_bytes(), opts.compact_threshold_bytes * 2);
}

TEST(VsrStoreTest, ChurnCompressesAtLeastTenfold) {
  test::TempDir dir;
  const auto opts = test_options(dir);
  VsrStore store(opts);
  ASSERT_TRUE(store.open().is_ok());
  store.record_epoch(1);
  std::uint64_t seq = 0;
  // The acceptance-criteria workload: 50 revisions per service where
  // each revision is a small edit of the last.
  for (const std::string name : {"vcr-1", "lamp-1", "tuner-1"}) {
    for (int rev = 0; rev < 50; ++rev) {
      const std::string body = body_rev(name, rev);
      store.record_upsert(upsert_for(++seq, name, body), body);
    }
  }
  ASSERT_TRUE(store.commit().is_ok());
  ASSERT_TRUE(store.compact().is_ok());
  auto stats = VsrStore::stats(opts.dir);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GT(stats.value().delta_entries, 0u);
  EXPECT_GE(stats.value().delta_ratio(), 10.0)
      << "stored " << stats.value().stored_body_bytes << "B for "
      << stats.value().expanded_body_bytes << "B of bodies";
}

TEST(VsrStoreTest, CompactionCapsSameBatchChains) {
  // Forty revisions of one service between compactions: each deltas on
  // the last, so without a cap the pack would hold a 39-delta chain,
  // past the kMaxDeltaChain that compaction promises.
  test::TempDir dir;
  const auto opts = test_options(dir);
  std::vector<std::string> bodies;
  {
    VsrStore store(opts);
    ASSERT_TRUE(store.open().is_ok());
    store.record_epoch(1);
    for (int rev = 0; rev < 40; ++rev) {
      bodies.push_back(body_rev("vcr-1", rev));
      store.record_upsert(upsert_for(rev + 1, "vcr-1", bodies.back()),
                          bodies.back());
    }
    ASSERT_TRUE(store.compact().is_ok());
  }
  VsrStore store(opts);
  ASSERT_TRUE(store.open().is_ok());
  for (const std::string& body : bodies) {
    auto back = store.body_for(content_digest(body));
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(back.value(), body);
  }
  auto stats = VsrStore::stats(opts.dir);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().delta_entries, bodies.size() - 1)
      << "a capped chain restarts as a delta on its root, not whole";
  PackSet packs(1);
  ASSERT_TRUE(packs[0].open(opts.dir + "/pack-000001.pack").is_ok());
  for (const std::string& body : bodies) {
    auto m = materialize(packs, content_digest(body));
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    EXPECT_LE(m.value().depth, kMaxDeltaChain);
  }
  EXPECT_TRUE(VsrStore::fsck(opts.dir).ok);
}

TEST(VsrStoreTest, FsckCleanOnHealthyStore) {
  test::TempDir dir;
  const auto opts = test_options(dir);
  VsrStore store(opts);
  ASSERT_TRUE(store.open().is_ok());
  store.record_epoch(1);
  std::uint64_t seq = 0;
  for (int rev = 0; rev < 6; ++rev) {
    const std::string body = body_rev("vcr-1", rev);
    store.record_upsert(upsert_for(++seq, "vcr-1", body), body);
  }
  ASSERT_TRUE(store.commit().is_ok());
  auto mid = VsrStore::fsck(opts.dir);
  EXPECT_TRUE(mid.ok) << (mid.errors.empty() ? "" : mid.errors[0]);
  ASSERT_TRUE(store.compact().is_ok());
  auto report = VsrStore::fsck(opts.dir);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.packs, 1u);
  EXPECT_GT(report.pack_entries, 0u);
  EXPECT_GT(report.bodies_verified, 0u);
}

TEST(VsrStoreTest, FsckDetectsLogBitFlip) {
  test::TempDir dir;
  const auto opts = test_options(dir);
  {
    VsrStore store(opts);
    ASSERT_TRUE(store.open().is_ok());
    store.record_epoch(1);
    const std::string body = body_rev("vcr-1", 0);
    store.record_upsert(upsert_for(1, "vcr-1", body), body);
    ASSERT_TRUE(store.commit().is_ok());
  }
  const std::string log_path = opts.dir + "/log";
  std::string bytes = read_file(log_path);
  ASSERT_GT(bytes.size(), 40u);
  bytes[30] = static_cast<char>(bytes[30] ^ 0x08);
  write_file(log_path, bytes);
  auto report = VsrStore::fsck(opts.dir);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.errors.empty());
}

TEST(VsrStoreTest, FsckDetectsPackBitFlip) {
  test::TempDir dir;
  const auto opts = test_options(dir);
  {
    VsrStore store(opts);
    ASSERT_TRUE(store.open().is_ok());
    store.record_epoch(1);
    std::uint64_t seq = 0;
    for (int rev = 0; rev < 4; ++rev) {
      const std::string body = body_rev("vcr-1", rev);
      store.record_upsert(upsert_for(++seq, "vcr-1", body), body);
    }
    ASSERT_TRUE(store.commit().is_ok());
    ASSERT_TRUE(store.compact().is_ok());
  }
  const std::string pack_path = opts.dir + "/pack-000001.pack";
  std::string bytes = read_file(pack_path);
  ASSERT_GT(bytes.size(), 100u);
  bytes[60] = static_cast<char>(bytes[60] ^ 0x04);  // inside entry data
  write_file(pack_path, bytes);
  auto report = VsrStore::fsck(opts.dir);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.errors.empty());
}

TEST(VsrStoreTest, CorruptTailRecoversPrefixAndFlagsLostTail) {
  test::TempDir dir;
  const auto opts = test_options(dir);
  const std::string b0 = body_rev("vcr-1", 0);
  const std::string b1 = body_rev("lamp-1", 0);
  {
    VsrStore store(opts);
    ASSERT_TRUE(store.open().is_ok());
    store.record_epoch(3);
    store.record_upsert(upsert_for(1, "vcr-1", b0), b0);
    store.record_upsert(upsert_for(2, "lamp-1", b1), b1);
    ASSERT_TRUE(store.commit().is_ok());
  }
  // Chop 17 bytes off the log tail — lands mid-frame somewhere inside
  // the lamp-1 records.
  const std::string log_path = opts.dir + "/log";
  const std::string bytes = read_file(log_path);
  write_file(log_path, bytes.substr(0, bytes.size() - 17));
  VsrStore store(opts);
  ASSERT_TRUE(store.open().is_ok());
  EXPECT_TRUE(store.recovered().lost_tail);
  EXPECT_EQ(store.recovered().epoch, 3u);
  // Whatever survived is a clean prefix: vcr-1 at least, never a
  // half-applied lamp-1.
  for (const auto& e : store.recovered().entries) {
    auto body = store.body_for(e.digest);
    ASSERT_TRUE(body.is_ok());
  }
}

TEST(VsrStoreTest, StatsCountsRecordsByType) {
  test::TempDir dir;
  const auto opts = test_options(dir);
  VsrStore store(opts);
  ASSERT_TRUE(store.open().is_ok());
  store.record_epoch(1);
  const std::string body = body_rev("vcr-1", 0);
  store.record_upsert(upsert_for(1, "vcr-1", body), body);
  store.record_touch("vcr-1", 5000000);
  RemoveRecord rm;
  rm.seq = 2;
  rm.name = "vcr-1";
  rm.digest = content_digest(body);
  store.record_remove(rm);
  ASSERT_TRUE(store.commit().is_ok());
  auto stats = VsrStore::stats(opts.dir);
  ASSERT_TRUE(stats.is_ok());
  const auto& by_type = stats.value().records_by_type;
  EXPECT_EQ(by_type.at("epoch"), 1u);
  EXPECT_EQ(by_type.at("body"), 1u);
  EXPECT_EQ(by_type.at("upsert"), 1u);
  EXPECT_EQ(by_type.at("touch"), 1u);
  EXPECT_EQ(by_type.at("remove"), 1u);
  EXPECT_EQ(stats.value().live_entries, 0u);
  EXPECT_EQ(stats.value().last_seq, 2u);
}

TEST(VsrStoreTest, BodyDedupAcrossRepublishOfSameContent) {
  test::TempDir dir;
  const auto opts = test_options(dir);
  VsrStore store(opts);
  ASSERT_TRUE(store.open().is_ok());
  store.record_epoch(1);
  const std::string body = body_rev("vcr-1", 0);
  // Same content published twice (and once under another name): the
  // body record must ride exactly once.
  store.record_upsert(upsert_for(1, "vcr-1", body), body);
  store.record_upsert(upsert_for(2, "vcr-1", body), body);
  store.record_upsert(upsert_for(3, "vcr-2", body), body);
  ASSERT_TRUE(store.commit().is_ok());
  auto stats = VsrStore::stats(opts.dir);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().records_by_type.at("body"), 1u);
  EXPECT_EQ(stats.value().records_by_type.at("upsert"), 3u);
}

}  // namespace
}  // namespace hcm::store
