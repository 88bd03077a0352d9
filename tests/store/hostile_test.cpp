// Crafted store files: a disk is a peer like any other, so every count,
// size and delta chain a store file declares is hostile input. Each
// probe here must end in a non-OK Status or an fsck error — never an
// allocation bomb, never unbounded recursion.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "store/codec.hpp"
#include "store/delta.hpp"
#include "store/pack.hpp"
#include "store/vsr_store.hpp"
#include "tests/store/temp_dir.hpp"

namespace hcm::store {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// A checkpoint declaring 2^35 entries, whose one real entry carries a
// digest length of 2^64-15: 24 bytes in all.
std::string checkpoint_count_bomb() {
  std::string p;
  p.push_back(static_cast<char>(RecordType::kCheckpoint));
  put_varint(p, 0);  // epoch
  put_varint(p, 0);  // seq
  put_varint(p, 0);  // compacted_through
  put_varint(p, std::uint64_t{1} << 35);  // entry count
  put_varint(p, 0);                       // entry seq
  put_string(p, "");                      // name
  put_string(p, "");                      // category
  put_string(p, "");                      // origin
  put_varint(p, ~std::uint64_t{0} - 14);  // digest length 2^64-15
  return p;
}

// Two delta entries that name each other as base: "aaaa" on "bbbb" and
// "bbbb" on "aaaa". PackWriter accepts it; only the chain walk can
// refuse it.
void write_cyclic_pack(const std::string& path) {
  PackWriter w;
  w.add_delta("aaaa", "bbbb", delta_encode("bbbb", "aaaa"));
  w.add_delta("bbbb", "aaaa", delta_encode("aaaa", "bbbb"));
  ASSERT_TRUE(w.write(path).is_ok());
}

// A store directory holding only the cyclic pack.
std::string cyclic_store(const test::TempDir& dir) {
  const std::string store_dir = dir.file("store");
  std::filesystem::create_directories(store_dir);
  write_cyclic_pack(store_dir + "/pack-000001.pack");
  return store_dir;
}

VsrStoreOptions options_for(const std::string& store_dir) {
  VsrStoreOptions o;
  o.dir = store_dir;
  o.fsync = RecordLog::FsyncPolicy::kNone;
  return o;
}

TEST(StoreHostileTest, CheckpointCountBombIsRejected) {
  const std::string payload = checkpoint_count_bomb();
  ASSERT_EQ(payload.size(), 24u);
  EXPECT_FALSE(decode_record(payload).is_ok());

  // The journal count is checked the same way, after the entries.
  std::string journal;
  journal.push_back(static_cast<char>(RecordType::kCheckpoint));
  put_varint(journal, 0);
  put_varint(journal, 0);
  put_varint(journal, 0);
  put_varint(journal, 0);                       // no entries
  put_varint(journal, std::uint64_t{1} << 40);  // journal count
  put_varint(journal, 1);
  journal.push_back(0);
  put_string(journal, "x");
  put_string(journal, "y");
  EXPECT_FALSE(decode_record(journal).is_ok());
}

TEST(StoreHostileTest, DeltaDeclaringHugeTargetIsRejected) {
  std::string delta;
  put_varint(delta, 4);                       // base size
  put_varint(delta, std::uint64_t{1} << 62);  // target size
  delta.push_back(0x01);                      // copy(0, 4)
  put_varint(delta, 0);
  put_varint(delta, 4);
  EXPECT_FALSE(delta_apply("base", delta).is_ok());
}

TEST(StoreHostileTest, DeltaCopyWithWrappingOffsetIsRejected) {
  // off + len wraps to 1: a range check written as a sum passes it.
  std::string delta;
  put_varint(delta, 4);  // base size
  put_varint(delta, 2);  // target size
  delta.push_back(0x01);
  put_varint(delta, ~std::uint64_t{0});  // offset 2^64-1
  put_varint(delta, 2);
  EXPECT_FALSE(delta_apply("base", delta).is_ok());
}

TEST(StoreHostileTest, CyclicPackFailsStats) {
  test::TempDir dir;
  const auto stats = VsrStore::stats(cyclic_store(dir));
  EXPECT_FALSE(stats.is_ok());
}

TEST(StoreHostileTest, CyclicPackFailsBodyForAfterOpen) {
  test::TempDir dir;
  VsrStore store(options_for(cyclic_store(dir)));
  ASSERT_TRUE(store.open().is_ok());
  EXPECT_FALSE(store.body_for("aaaa").is_ok());
  EXPECT_FALSE(store.body_for("bbbb").is_ok());
}

TEST(StoreHostileTest, CyclicPackFailsFsck) {
  test::TempDir dir;
  const auto report = VsrStore::fsck(cyclic_store(dir));
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.pack_entries, 2u);
  EXPECT_EQ(report.bodies_verified, 0u);
}

TEST(StoreHostileTest, CheckedInCyclicFixtureIsTheWriterOutput) {
  // ci/check.sh runs hcm_store fsck/stats over this directory and
  // requires a clean exit status 1; it must stay the pack probed above.
  test::TempDir dir;
  const std::string store_dir = cyclic_store(dir);
  EXPECT_EQ(read_file(std::string(HCM_SOURCE_DIR) +
                      "/tests/store/fixtures/cyclic/pack-000001.pack"),
            read_file(store_dir + "/pack-000001.pack"));
}

// tests/store/fixtures/deep-chain: a store written before compaction
// capped same-batch chains. Fifty revisions of vcr-1 (rev r's body is
// deep_chain_body(r)) were upserted at seq r+1 under epoch 1, then
// compacted into one pack: a whole rev 0 and a 49-delta chain.
std::string deep_chain_body(int rev) {
  return "<definitions name=\"vcr-1\">" + std::string(400, 'd') +
         "<endpoint uri=\"http://fav:8000/r" + std::to_string(rev) +
         "\"/></definitions>";
}

std::string deep_chain_store(const test::TempDir& dir) {
  const std::string store_dir = dir.file("store");
  std::filesystem::copy(
      std::string(HCM_SOURCE_DIR) + "/tests/store/fixtures/deep-chain",
      store_dir);
  return store_dir;
}

TEST(StoreHostileTest, DeepChainFromUncappedCompactionStillResolves) {
  test::TempDir dir;
  const std::string store_dir = deep_chain_store(dir);
  auto stats = VsrStore::stats(store_dir);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().delta_entries, 49u);
  EXPECT_TRUE(VsrStore::fsck(store_dir).ok);

  VsrStore store(options_for(store_dir));
  ASSERT_TRUE(store.open().is_ok());
  ASSERT_EQ(store.recovered().entries.size(), 1u);
  for (int rev = 0; rev < 50; ++rev) {
    const std::string body = deep_chain_body(rev);
    auto back = store.body_for(content_digest(body));
    ASSERT_TRUE(back.is_ok()) << "rev " << rev << ": "
                              << back.status().to_string();
    EXPECT_EQ(back.value(), body);
  }

  // Compacting on top restarts the chain at its whole root: the new
  // revision is a delta, one deep.
  const std::string next = deep_chain_body(50);
  store.record_upsert(UpsertRecord{51, "vcr-1", "VcrControl", "jini-island",
                                   content_digest(next), 0},
                      next);
  ASSERT_TRUE(store.compact().is_ok());
  auto back = store.body_for(content_digest(next));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), next);
  stats = VsrStore::stats(store_dir);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().delta_entries, 50u);
  EXPECT_TRUE(VsrStore::fsck(store_dir).ok);
}

TEST(StoreHostileTest, CycleLongerThanTheWriteCapIsRejected) {
  // Forty deltas in a ring, each on the next: the walk stops once it
  // has followed as many links as the pack set has entries.
  test::TempDir dir;
  const std::string store_dir = dir.file("store");
  std::filesystem::create_directories(store_dir);
  constexpr std::size_t kRing = 40;
  static_assert(kRing > kMaxDeltaChain);
  PackWriter w;
  for (std::size_t i = 0; i < kRing; ++i) {
    const std::string self = "d" + std::to_string(i);
    const std::string base = "d" + std::to_string((i + 1) % kRing);
    w.add_delta(self, base, delta_encode(base, self));
  }
  ASSERT_TRUE(w.write(store_dir + "/pack-000001.pack").is_ok());

  VsrStore store(options_for(store_dir));
  ASSERT_TRUE(store.open().is_ok());
  EXPECT_FALSE(store.body_for("d0").is_ok());
  EXPECT_FALSE(VsrStore::stats(store_dir).is_ok());
  const auto report = VsrStore::fsck(store_dir);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.bodies_verified, 0u);
}

}  // namespace
}  // namespace hcm::store
