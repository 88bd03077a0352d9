#include "common/frame_reader.hpp"

#include <gtest/gtest.h>

namespace hcm {
namespace {

// `payload` behind its length prefix.
BlockStream framed(const Bytes& payload) {
  return build_frame([&](BlockStream& f) { f.put_raw(payload); });
}

// Feeds `wire` and collects every complete frame's payload.
Status feed(FrameReader& reader, BlockStream wire, std::vector<Bytes>& out) {
  return reader.feed(std::move(wire), [&out](ByteView f) {
    out.emplace_back(f.begin(), f.end());
    return Status::ok();
  });
}

TEST(FrameReaderTest, SingleFrame) {
  FrameReader reader;
  std::vector<Bytes> out;
  Bytes payload = to_bytes("payload");
  ASSERT_TRUE(feed(reader, framed(payload), out).is_ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], payload);
}

TEST(FrameReaderTest, SplitAcrossFeeds) {
  FrameReader reader;
  std::vector<Bytes> out;
  Bytes wire;
  framed(to_bytes("split")).append_to(wire);
  for (auto b : wire) {
    BlockStream chunk;
    chunk.append(&b, 1);
    ASSERT_TRUE(feed(reader, std::move(chunk), out).is_ok());
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(to_string(out[0]), "split");
}

TEST(FrameReaderTest, MultipleFramesInOneFeed) {
  FrameReader reader;
  std::vector<Bytes> out;
  BlockStream stream = framed(to_bytes("a"));
  stream.splice(framed(to_bytes("bb")));
  ASSERT_TRUE(feed(reader, std::move(stream), out).is_ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(to_string(out[0]), "a");
  EXPECT_EQ(to_string(out[1]), "bb");
}

TEST(FrameReaderTest, OversizedFrameRejected) {
  FrameReader reader;
  std::vector<Bytes> out;
  BlockStream stream;
  stream.append(Bytes{0xFF, 0xFF, 0xFF, 0xFF});  // 4 GiB frame length
  EXPECT_FALSE(feed(reader, std::move(stream), out).is_ok());
}

TEST(FrameReaderTest, BoundIsSixteenMebibytes) {
  // The bound itself is legal (the reader waits for the body); one byte
  // over it is rejected from the prefix alone.
  std::vector<Bytes> out;
  FrameReader at_bound;
  BlockStream ok;
  ok.put_u32(kMaxMessageBytes);
  EXPECT_TRUE(feed(at_bound, std::move(ok), out).is_ok());
  FrameReader over;
  BlockStream bad;
  bad.put_u32(kMaxMessageBytes + 1);
  EXPECT_EQ(feed(over, std::move(bad), out).code(),
            StatusCode::kProtocolError);
  EXPECT_TRUE(out.empty());
}

TEST(FrameReaderTest, FrameAcrossBlockSeamIsContiguous) {
  // 48 KB spans three 16 KB blocks: the view must still be one run.
  Bytes payload(48 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  FrameReader reader;
  std::vector<Bytes> out;
  ASSERT_TRUE(feed(reader, framed(payload), out).is_ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], payload);
}

TEST(FrameReaderTest, CallbackErrorStopsTheFeed) {
  FrameReader reader;
  BlockStream stream = framed(to_bytes("a"));
  stream.splice(framed(to_bytes("b")));
  int calls = 0;
  auto s = reader.feed(std::move(stream), [&calls](ByteView) {
    ++calls;
    return protocol_error("no");
  });
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace hcm
