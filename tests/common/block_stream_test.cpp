#include "common/block_stream.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hcm {
namespace {

// A pattern long enough that repeated appends cross block seams at
// non-trivial offsets.
std::string patterned(std::size_t n) {
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>('a' + (i * 7 + i / 251) % 26));
  }
  return s;
}

TEST(BlockStreamTest, AppendAndCopyOutAcrossBlocks) {
  BlockPool pool({.max_blocks = 16, .lanes = 1});
  BlockStream s(&pool);
  const std::string data = patterned(3 * BlockPool::kBlockCapacity + 777);
  s.append(data);
  EXPECT_EQ(s.size(), data.size());
  EXPECT_EQ(s.to_string(), data);
  EXPECT_GE(pool.stats().blocks_in_use, 4u);
  s.clear();
  EXPECT_EQ(pool.stats().blocks_in_use, 0u);
}

TEST(BlockStreamTest, FindSpansBlockSeam) {
  BlockPool pool({.max_blocks = 16, .lanes = 1});
  BlockStream s(&pool);
  // Place "\r\n\r\n" so it straddles the first block boundary.
  std::string head(BlockPool::kBlockCapacity - 2, 'x');
  s.append(head);
  s.append("\r\n\r\n");
  s.append("tail");
  EXPECT_EQ(s.find("\r\n\r\n"), head.size());
  EXPECT_EQ(s.find("tail"), head.size() + 4);
  EXPECT_EQ(s.find("absent"), BlockStream::npos);
  // A false prefix right before the seam must not mask the real hit.
  EXPECT_EQ(s.find("\r\n\r\n", head.size() + 1), BlockStream::npos);
}

TEST(BlockStreamTest, ViewZeroCopyWithinBlockScratchAcross) {
  BlockPool pool({.max_blocks = 16, .lanes = 1});
  BlockStream s(&pool);
  const std::string data = patterned(2 * BlockPool::kBlockCapacity);
  s.append(data);
  std::string scratch;
  // Inside the first block: must not touch scratch.
  scratch = "sentinel";
  auto v1 = s.view(10, 100, scratch);
  EXPECT_EQ(v1, std::string_view(data).substr(10, 100));
  EXPECT_EQ(scratch, "sentinel");
  // Spanning the seam: scratch-backed.
  auto v2 = s.view(BlockPool::kBlockCapacity - 50, 100, scratch);
  EXPECT_EQ(v2, std::string_view(data).substr(BlockPool::kBlockCapacity - 50,
                                              100));
}

TEST(BlockStreamTest, ConsumeReleasesDrainedBlocks) {
  BlockPool pool({.max_blocks = 16, .lanes = 1});
  BlockStream s(&pool);
  const std::string data = patterned(2 * BlockPool::kBlockCapacity + 100);
  s.append(data);
  s.consume(BlockPool::kBlockCapacity + 10);  // drains block 0, enters 1
  EXPECT_EQ(pool.stats().blocks_in_use, 2u);
  EXPECT_EQ(s.size(), data.size() - BlockPool::kBlockCapacity - 10);
  EXPECT_EQ(s.to_string(), data.substr(BlockPool::kBlockCapacity + 10));
  // find/view are relative to the consumed front.
  std::string scratch;
  EXPECT_EQ(s.view(0, 5, scratch),
            std::string_view(data).substr(BlockPool::kBlockCapacity + 10, 5));
  s.consume(s.size());
  EXPECT_EQ(pool.stats().blocks_in_use, 0u);
  EXPECT_TRUE(s.empty());
}

TEST(BlockStreamTest, SpliceRelinksWithoutCopy) {
  BlockPool pool({.max_blocks = 16, .lanes = 1});
  BlockStream a(&pool);
  BlockStream b(&pool);
  // a's tail has 3 bytes of room, too few for b: the chain relinks.
  const std::string head = patterned(BlockPool::kBlockCapacity - 3);
  a.append(head);
  b.append("world");
  const auto fresh_before = pool.stats().fresh_blocks;
  a.splice(std::move(b));
  EXPECT_EQ(pool.stats().fresh_blocks, fresh_before);  // no new blocks
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.to_string(), head + "world");
  // Appending after a splice continues in the spliced tail block.
  a.append("!");
  EXPECT_EQ(a.to_string(), head + "world!");
  EXPECT_EQ(pool.stats().blocks_in_use, 2u);
}

TEST(BlockStreamTest, SpliceCopiesIntoTailRoom) {
  BlockPool pool({.max_blocks = 16, .lanes = 1});
  BlockStream a(&pool);
  a.append("hello ");
  // A trickle of one-byte deliveries fills the tail block instead of
  // linking a block per delivery.
  for (char c : std::string("world")) {
    BlockStream b(&pool);
    b.put(c);
    a.splice(std::move(b));
    EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  }
  EXPECT_EQ(a.to_string(), "hello world");
  EXPECT_EQ(pool.stats().blocks_in_use, 1u);
}

TEST(BlockStreamTest, SplicePartiallyConsumedFallsBackToCopy) {
  BlockPool pool({.max_blocks = 16, .lanes = 1});
  BlockStream a(&pool);
  BlockStream b(&pool);
  a.append("keep:");
  b.append("dropme-rest");
  b.consume(7);
  a.splice(std::move(b));
  EXPECT_EQ(a.to_string(), "keep:rest");
}

TEST(BlockStreamTest, MoveTransfersChain) {
  BlockPool pool({.max_blocks = 16, .lanes = 1});
  BlockStream a(&pool);
  a.append("payload");
  BlockStream b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.to_string(), "payload");
  BlockStream c(&pool);
  c.append("overwritten");
  c = std::move(b);
  EXPECT_EQ(c.to_string(), "payload");
  c.clear();
  EXPECT_EQ(pool.stats().blocks_in_use, 0u);
}

TEST(BlockStreamTest, ForEachChunkCoversAllBytesInOrder) {
  BlockPool pool({.max_blocks = 16, .lanes = 1});
  BlockStream s(&pool);
  const std::string data = patterned(BlockPool::kBlockCapacity + 333);
  s.append(data);
  s.consume(11);
  std::string walked;
  s.for_each_chunk([&walked](BlockStream::Chunk c) {
    walked.append(reinterpret_cast<const char*>(c.data), c.size);
  });
  EXPECT_EQ(walked, data.substr(11));
}

TEST(BlockStreamTest, ToBytesMatchesAppendedBytes) {
  BlockStream s;  // default pool
  Bytes in = {0x00, 0xff, 0x10, 0x20};
  s.append(in);
  Bytes out = {0x7f};  // append_to appends after existing contents
  s.append_to(out);
  EXPECT_EQ(out, (Bytes{0x7f, 0x00, 0xff, 0x10, 0x20}));
}

}  // namespace
}  // namespace hcm
