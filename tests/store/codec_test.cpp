// Codec primitives + record round-trips for the durable VSR store.
// hcm_lint's store-record rule re-checks the canonical fixtures on
// every run; these tests pin the primitives the rule builds on and the
// failure modes (truncation, trailing bytes, unknown types) it cannot
// see.
#include "store/codec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "soap/wsdl.hpp"

namespace hcm::store {
namespace {

TEST(StoreCodecTest, ContentDigestMatchesWsdlDigest) {
  // One digest implementation: the registry's wire digest and the
  // store's body key must agree on every input, or replay could resolve
  // a different body than the registry advertised.
  for (const std::string& s :
       {std::string(""), std::string("<definitions/>"),
        std::string(1000, 'x'), std::string("\x00\xff binary \x7f", 11)}) {
    EXPECT_EQ(content_digest(s), soap::wsdl_digest(s));
  }
  EXPECT_EQ(content_digest("").size(), 16u);
  EXPECT_NE(content_digest("a"), content_digest("b"));
}

TEST(StoreCodecTest, ChainHashIsOrderSensitive) {
  const std::uint64_t ab =
      chain_hash(chain_hash(kChainGenesis, "a"), "b");
  const std::uint64_t ba =
      chain_hash(chain_hash(kChainGenesis, "b"), "a");
  EXPECT_NE(ab, ba);
  EXPECT_NE(ab, kChainGenesis);
}

TEST(StoreCodecTest, Crc32DetectsSingleBitFlips) {
  std::string data(64, '\x5a');
  const std::uint32_t clean = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::string flipped = data;
    flipped[i] = static_cast<char>(flipped[i] ^ 1);
    EXPECT_NE(crc32(flipped), clean) << "flip at byte " << i;
  }
}

TEST(StoreCodecTest, VarintRoundTripsBoundaryValues) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{0xffffffffULL}, ~std::uint64_t{0}}) {
    std::string buf;
    put_varint(buf, v);
    BufReader r(buf);
    std::uint64_t back = 0;
    EXPECT_TRUE(get_varint(r, back));
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.at_end());
  }
  // Ten continuation bytes carry more than 64 bits: not a varint.
  const std::string overlong = std::string(10, '\xff') + '\x01';
  BufReader r(overlong);
  std::uint64_t v = 0;
  EXPECT_FALSE(get_varint(r, v));
}

TEST(StoreCodecTest, ReadsFailOnUnderrunWithoutReadingPastTheEnd) {
  std::string buf;
  put_u32(buf, 7);
  put_string(buf, "lamp-1");
  std::uint32_t n = 0;
  std::uint64_t wide = 0;
  std::string_view s;
  {
    BufReader r(std::string_view(buf).substr(0, 2));  // cut mid-field
    EXPECT_FALSE(get_u32(r, n));
    EXPECT_FALSE(get_u64(r, wide));
    EXPECT_EQ(r.remaining(), 2u);  // a failed fixed read consumes nothing
  }
  // A string whose declared length outruns the buffer, including a
  // length near 2^64 that a `pos + n` bounds check would wrap.
  std::string huge;
  put_varint(huge, ~std::uint64_t{0} - 14);
  huge += "short";
  for (std::string_view cut :
       {std::string_view(buf).substr(4, 4), std::string_view(huge)}) {
    BufReader r(cut);
    EXPECT_FALSE(get_string(r, s));
    EXPECT_LE(r.pos(), cut.size());
  }
  BufReader r(buf);
  ASSERT_TRUE(get_u32(r, n) && get_string(r, s));
  EXPECT_EQ(n, 7u);
  EXPECT_EQ(s, "lamp-1");
  EXPECT_TRUE(r.at_end());
}

TEST(StoreCodecTest, AllRecordTypesAreEnumeratedAndNamed) {
  const auto types = all_record_types();
  EXPECT_EQ(types.size(), 6u);
  std::set<std::string> names;
  for (RecordType t : types) names.insert(record_type_name(t));
  EXPECT_EQ(names.size(), types.size()) << "duplicate record type names";
}

Record sample_upsert() {
  Record r;
  r.type = RecordType::kUpsert;
  r.upsert = UpsertRecord{42,         "vcr-1", "VcrControl",
                          "havi-island", content_digest("<x/>"), 120000000};
  return r;
}

TEST(StoreCodecTest, UpsertRoundTripsIncludingNoLeaseExpiry) {
  for (std::int64_t expiry : {std::int64_t{0}, std::int64_t{120000000},
                              std::int64_t{-1}}) {
    Record r = sample_upsert();
    r.upsert.expires_at = expiry;
    auto back = decode_record(encode_record(r));
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(back.value(), r);
  }
}

TEST(StoreCodecTest, CheckpointRoundTripsEntriesAndJournal) {
  Record r;
  r.type = RecordType::kCheckpoint;
  r.checkpoint.epoch = 3;
  r.checkpoint.seq = 99;
  r.checkpoint.compacted_through = 40;
  r.checkpoint.entries = {sample_upsert().upsert};
  r.checkpoint.journal = {JournalEntry{98, false, "vcr-1", "d1"},
                          JournalEntry{99, true, "lamp-1", "d2"}};
  auto back = decode_record(encode_record(r));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), r);
}

TEST(StoreCodecTest, TruncatedPayloadIsRejectedAtEveryLength) {
  const std::string encoded = encode_record(sample_upsert());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    auto r = decode_record(std::string_view(encoded).substr(0, len));
    EXPECT_FALSE(r.is_ok()) << "decoded a " << len << "-byte prefix of a "
                            << encoded.size() << "-byte record";
  }
}

TEST(StoreCodecTest, TrailingBytesAreRejected) {
  std::string encoded = encode_record(sample_upsert());
  encoded.push_back('\0');
  EXPECT_FALSE(decode_record(encoded).is_ok());
}

TEST(StoreCodecTest, UnknownRecordTypeIsRejected) {
  std::string encoded = encode_record(sample_upsert());
  encoded[0] = '\x7f';
  EXPECT_FALSE(decode_record(encoded).is_ok());
}

}  // namespace
}  // namespace hcm::store
