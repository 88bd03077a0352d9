// Golden on-disk bytes for the durable VSR store: one record of each
// type, one log frame, one delta and the two-entry sample pack, pinned
// as hex. The codec round-trip tests (and hcm_lint's store-record
// fixtures) would still pass if encoder and decoder changed the format
// together; these fail on any byte that moves. Every golden is also
// cut at every offset: each prefix must be rejected, never decoded and
// never a crash.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "store/codec.hpp"
#include "store/delta.hpp"
#include "store/pack.hpp"
#include "store/record_log.hpp"
#include "tests/store/temp_dir.hpp"

namespace hcm::store {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::string hex(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

std::string unhex(std::string_view text) {
  std::string out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(text.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

const std::string kDigest = "00cafe1234567890";

std::vector<Record> sample_records() {
  Record epoch;
  epoch.type = RecordType::kEpoch;
  epoch.epoch = EpochRecord{7};
  Record body;
  body.type = RecordType::kBody;
  body.body = BodyRecord{kDigest, "<definitions name=\"Switchable\"/>"};
  Record upsert;
  upsert.type = RecordType::kUpsert;
  upsert.upsert = UpsertRecord{42,      "lamp-1", "Switchable", "x10-island",
                               kDigest, 120000000};
  Record remove;
  remove.type = RecordType::kRemove;
  remove.remove = RemoveRecord{43, "lamp-1", kDigest};
  Record touch;
  touch.type = RecordType::kTouch;
  touch.touch = TouchRecord{"lamp-1", -240000000};
  Record checkpoint;
  checkpoint.type = RecordType::kCheckpoint;
  checkpoint.checkpoint = CheckpointRecord{
      7,
      300,
      12,
      {UpsertRecord{42, "lamp-1", "Switchable", "x10-island", kDigest,
                    120000000}},
      {JournalEntry{42, false, "lamp-1", kDigest},
       JournalEntry{43, true, "vcr-1", kDigest}}};
  return {epoch, body, upsert, remove, touch, checkpoint};
}

// encode_record output, in sample_records() order.
const char* const kRecordGolden[] = {
    "0107",
    "021030306361666531323334353637383930203c646566696e6974696f6e7320"
    "6e616d653d2253776974636861626c65222f3e",
    "032a066c616d702d310a53776974636861626c650a7831302d69736c616e6410"
    "3030636166653132333435363738393080b8b872",
    "042b066c616d702d311030306361666531323334353637383930",
    "05066c616d702d31ffeff0e401",
    "0607ac020c012a066c616d702d310a53776974636861626c650a7831302d6973"
    "6c616e64103030636166653132333435363738393080b8b872022a00066c616d"
    "702d3110303063616665313233343536373839302b01057663722d3110303063"
    "61666531323334353637383930",
};

// RecordLog::append(encode_record(epoch 7)) as committed to disk.
const char* const kLogFrameGolden = "020000001db6a6c6118be8b407212f080107";

// delta_encode(kDeltaBase, kDeltaTarget).
const char* const kDeltaBase =
    "<definitions name=\"VcrControl\"><operation name=\"play\"/>"
    "<operation name=\"stop\"/><endpoint uri=\"http://fav:8000/s1\"/>"
    "</definitions>";
const char* const kDeltaTarget =
    "<definitions name=\"VcrControl\"><operation name=\"play\"/>"
    "<operation name=\"stop\"/><endpoint uri=\"http://fav:8000/s2\"/>"
    "</definitions>";
const char* const kDeltaGolden = "8101810101006f000132017011";

// The two-entry pack pack_test.cpp's SamplePack writes: one full body
// and one delta-encoded revision of it.
struct SampleBodies {
  std::string base =
      "<definitions name=\"VcrControl\">" + std::string(500, 'v') +
      "</definitions>";
  std::string next = [this] {
    std::string s = base;
    s.replace(s.find("vvvv"), 4, "play");
    return s;
  }();
};

const char* const kPackGolden =
    "48434d5041434b31001039346563303866663062303937646630210200003c64"
    "6566696e6974696f6e73206e616d653d22566372436f6e74726f6c223e767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "7676767676767676767676767676767676767676767676767676767676767676"
    "76767676767676767676767676767676763c2f646566696e6974696f6e733e2a"
    "6b4a250110613836326366613439633061396138321039346563303866663062"
    "30393764663021000000a104a10401001f0004706c61790120f003000e3c2f64"
    "6566696e6974696f6e733ec60926720200000010393465633038666630623039"
    "3764663008000000000000001061383632636661343963306139613832430200"
    "00000000008f020000000000007435d1bd48434d504b495831";

std::string write_sample_pack(const test::TempDir& dir) {
  const SampleBodies b;
  PackWriter w;
  w.add_full(content_digest(b.base), b.base);
  w.add_delta(content_digest(b.next), content_digest(b.base),
              delta_encode(b.base, b.next));
  const std::string path = dir.file("pack-000001.pack");
  EXPECT_TRUE(w.write(path).is_ok());
  return path;
}

TEST(StoreGoldenTest, RecordBytesArePinned) {
  const auto records = sample_records();
  ASSERT_EQ(records.size(), std::size(kRecordGolden));
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(hex(encode_record(records[i])), kRecordGolden[i])
        << record_type_name(records[i].type);
    auto back = decode_record(unhex(kRecordGolden[i]));
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(back.value(), records[i]);
  }
}

TEST(StoreGoldenTest, LogFrameBytesArePinned) {
  test::TempDir dir;
  const std::string path = dir.file("log");
  {
    RecordLog log;
    ASSERT_TRUE(log.open(path, RecordLog::FsyncPolicy::kNone).is_ok());
    log.append(encode_record(sample_records()[0]));
    ASSERT_TRUE(log.commit().is_ok());
  }
  EXPECT_EQ(hex(read_file(path)), kLogFrameGolden);
}

TEST(StoreGoldenTest, DeltaBytesArePinned) {
  EXPECT_EQ(hex(delta_encode(kDeltaBase, kDeltaTarget)), kDeltaGolden);
  auto applied = delta_apply(kDeltaBase, unhex(kDeltaGolden));
  ASSERT_TRUE(applied.is_ok()) << applied.status().to_string();
  EXPECT_EQ(applied.value(), kDeltaTarget);
}

TEST(StoreGoldenTest, PackBytesArePinned) {
  test::TempDir dir;
  const std::string path = write_sample_pack(dir);
  EXPECT_EQ(hex(read_file(path)), kPackGolden);
  const SampleBodies b;
  PackReader r;
  ASSERT_TRUE(r.open(path).is_ok());
  auto next = r.read(content_digest(b.next));
  ASSERT_TRUE(next.is_ok()) << next.status().to_string();
  EXPECT_EQ(next.value().base_digest, content_digest(b.base));
}

TEST(StoreGoldenTest, EveryRecordPrefixIsRejected) {
  for (const char* golden : kRecordGolden) {
    const std::string bytes = unhex(golden);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::string_view prefix = std::string_view(bytes).substr(0, len);
      EXPECT_FALSE(decode_record(prefix).is_ok())
          << "decoded a " << len << "-byte prefix of " << golden;
    }
  }
}

TEST(StoreGoldenTest, EveryLogFramePrefixScansAsTornTail) {
  test::TempDir dir;
  const std::string path = dir.file("log");
  const std::string bytes = unhex(kLogFrameGolden);
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    write_file(path, std::string_view(bytes).substr(0, len));
    auto scan = RecordLog::scan_file(path);
    ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
    EXPECT_FALSE(scan.value().clean) << "cut at " << len;
    EXPECT_TRUE(scan.value().frames.empty()) << "cut at " << len;
    EXPECT_EQ(scan.value().valid_bytes, 0u) << "cut at " << len;
  }
}

TEST(StoreGoldenTest, EveryDeltaPrefixIsRejected) {
  const std::string bytes = unhex(kDeltaGolden);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        delta_apply(kDeltaBase, std::string_view(bytes).substr(0, len)).is_ok())
        << "applied a " << len << "-byte prefix";
  }
}

TEST(StoreGoldenTest, EveryPackPrefixFailsOpen) {
  test::TempDir dir;
  const std::string path = dir.file("pack-000001.pack");
  const std::string bytes = unhex(kPackGolden);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(path, std::string_view(bytes).substr(0, len));
    PackReader r;
    EXPECT_FALSE(r.open(path).is_ok()) << "opened a " << len << "-byte prefix";
  }
}

}  // namespace
}  // namespace hcm::store
