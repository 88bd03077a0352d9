#include "store/codec.hpp"

#include <array>

namespace hcm::store {

namespace {

// IEEE CRC32 table, computed at compile time (reflected polynomial).
constexpr auto kCrcTable = [] {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}();

}  // namespace

std::uint64_t chain_hash(std::uint64_t seed, std::string_view bytes) {
  return fnv1a(seed, bytes);
}

std::string content_digest(std::string_view text) {
  const std::uint64_t h = chain_hash(kChainGenesis, text);
  char buf[17];
  static const char* hex = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    buf[i] = hex[(h >> ((15 - i) * 4)) & 0xf];
  }
  buf[16] = '\0';
  return std::string(buf);
}

std::uint32_t crc32(std::string_view bytes) {
  std::uint32_t c = 0xffffffffu;
  for (unsigned char b : bytes) {
    c = kCrcTable[(c ^ b) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s.data(), s.size());
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint8_t Cursor::u8() {
  if (pos + 1 > data.size()) {
    ok = false;
    return 0;
  }
  return static_cast<std::uint8_t>(data[pos++]);
}

std::uint32_t Cursor::u32() {
  if (pos + 4 > data.size()) {
    ok = false;
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[pos + i]))
         << (8 * i);
  }
  pos += 4;
  return v;
}

std::uint64_t Cursor::u64() {
  if (pos + 8 > data.size()) {
    ok = false;
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[pos + i]))
         << (8 * i);
  }
  pos += 8;
  return v;
}

std::uint64_t Cursor::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos >= data.size() || shift > 63) {
      ok = false;
      return 0;
    }
    const auto b = static_cast<unsigned char>(data[pos++]);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::string Cursor::str() {
  const std::uint64_t n = varint();
  if (!ok || pos + n > data.size()) {
    ok = false;
    return {};
  }
  std::string s(data.substr(pos, n));
  pos += n;
  return s;
}

std::vector<RecordType> all_record_types() {
  return {RecordType::kEpoch,  RecordType::kBody,  RecordType::kUpsert,
          RecordType::kRemove, RecordType::kTouch, RecordType::kCheckpoint};
}

const char* record_type_name(RecordType t) {
  switch (t) {
    case RecordType::kEpoch: return "epoch";
    case RecordType::kBody: return "body";
    case RecordType::kUpsert: return "upsert";
    case RecordType::kRemove: return "remove";
    case RecordType::kTouch: return "touch";
    case RecordType::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

namespace {

// expires_at is a signed sim time; zig-zag keeps the varint small for
// the common 0 = no-lease case while representing any int64.
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void encode_upsert_fields(std::string& out, const UpsertRecord& u) {
  put_varint(out, u.seq);
  put_string(out, u.name);
  put_string(out, u.category);
  put_string(out, u.origin);
  put_string(out, u.digest);
  put_varint(out, zigzag(u.expires_at));
}

UpsertRecord decode_upsert_fields(Cursor& c) {
  UpsertRecord u;
  u.seq = c.varint();
  u.name = c.str();
  u.category = c.str();
  u.origin = c.str();
  u.digest = c.str();
  u.expires_at = unzigzag(c.varint());
  return u;
}

}  // namespace

std::string encode_record(const Record& r) {
  std::string out;
  out.push_back(static_cast<char>(r.type));
  switch (r.type) {
    case RecordType::kEpoch:
      put_varint(out, r.epoch.epoch);
      break;
    case RecordType::kBody:
      put_string(out, r.body.digest);
      put_string(out, r.body.body);
      break;
    case RecordType::kUpsert:
      encode_upsert_fields(out, r.upsert);
      break;
    case RecordType::kRemove:
      put_varint(out, r.remove.seq);
      put_string(out, r.remove.name);
      put_string(out, r.remove.digest);
      break;
    case RecordType::kTouch:
      put_string(out, r.touch.name);
      put_varint(out, zigzag(r.touch.expires_at));
      break;
    case RecordType::kCheckpoint: {
      put_varint(out, r.checkpoint.epoch);
      put_varint(out, r.checkpoint.seq);
      put_varint(out, r.checkpoint.compacted_through);
      put_varint(out, r.checkpoint.entries.size());
      for (const UpsertRecord& e : r.checkpoint.entries) {
        encode_upsert_fields(out, e);
      }
      put_varint(out, r.checkpoint.journal.size());
      for (const JournalEntry& j : r.checkpoint.journal) {
        put_varint(out, j.seq);
        out.push_back(j.remove ? 1 : 0);
        put_string(out, j.name);
        put_string(out, j.digest);
      }
      break;
    }
  }
  return out;
}

Result<Record> decode_record(std::string_view payload) {
  Cursor c{payload};
  Record r;
  const std::uint8_t type = c.u8();
  if (!c.ok) return protocol_error("store record: empty payload");
  switch (static_cast<RecordType>(type)) {
    case RecordType::kEpoch:
      r.type = RecordType::kEpoch;
      r.epoch.epoch = c.varint();
      break;
    case RecordType::kBody:
      r.type = RecordType::kBody;
      r.body.digest = c.str();
      r.body.body = c.str();
      break;
    case RecordType::kUpsert:
      r.type = RecordType::kUpsert;
      r.upsert = decode_upsert_fields(c);
      break;
    case RecordType::kRemove:
      r.type = RecordType::kRemove;
      r.remove.seq = c.varint();
      r.remove.name = c.str();
      r.remove.digest = c.str();
      break;
    case RecordType::kTouch:
      r.type = RecordType::kTouch;
      r.touch.name = c.str();
      r.touch.expires_at = unzigzag(c.varint());
      break;
    case RecordType::kCheckpoint: {
      r.type = RecordType::kCheckpoint;
      r.checkpoint.epoch = c.varint();
      r.checkpoint.seq = c.varint();
      r.checkpoint.compacted_through = c.varint();
      const std::uint64_t entries = c.varint();
      for (std::uint64_t i = 0; c.ok && i < entries; ++i) {
        r.checkpoint.entries.push_back(decode_upsert_fields(c));
      }
      const std::uint64_t journal = c.varint();
      for (std::uint64_t i = 0; c.ok && i < journal; ++i) {
        JournalEntry j;
        j.seq = c.varint();
        j.remove = c.u8() != 0;
        j.name = c.str();
        j.digest = c.str();
        r.checkpoint.journal.push_back(std::move(j));
      }
      break;
    }
    default:
      return protocol_error("store record: unknown type " +
                            std::to_string(type));
  }
  if (!c.ok || !c.done()) {
    return protocol_error(std::string("store record: malformed ") +
                          record_type_name(r.type) + " payload");
  }
  return r;
}

}  // namespace hcm::store
