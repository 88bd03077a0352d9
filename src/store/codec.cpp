#include "store/codec.hpp"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>

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

namespace {

template <typename T>
void put_le(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

template <typename T>
bool get_le(BufReader& r, T& out) {
  auto bytes = r.view(sizeof(T));
  if (!bytes.is_ok()) return false;
  out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out |= static_cast<T>(static_cast<unsigned char>(bytes.value()[i]))
           << (8 * i);
  }
  return true;
}

}  // namespace

void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }
bool get_u32(BufReader& r, std::uint32_t& out) { return get_le(r, out); }
bool get_u64(BufReader& r, std::uint64_t& out) { return get_le(r, out); }

bool get_varint(BufReader& r, std::uint64_t& out) {
  out = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    auto b = r.u8();
    if (!b.is_ok()) return false;
    out |= static_cast<std::uint64_t>(b.value() & 0x7f) << shift;
    if ((b.value() & 0x80) == 0) return true;
  }
  return false;  // more than ten bytes: not a 64-bit varint
}

bool get_string(BufReader& r, std::string_view& out) {
  std::uint64_t n = 0;
  if (!get_varint(r, n)) return false;
  auto bytes = r.view(n);
  if (bytes.is_ok()) out = bytes.value();
  return bytes.is_ok();
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return not_found(path + " is unreadable");
  const auto size = static_cast<std::streamsize>(in.tellg());
  std::string data(static_cast<std::size_t>(size), '\0');
  if (!in.seekg(0).read(data.data(), size)) {
    return internal_error("read " + path + " failed");
  }
  return data;
}

Status write_all(int fd, std::string_view bytes, const char* kind,
                 const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return internal_error(std::string("write ") + kind + " " + path + ": " +
                            std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return Status::ok();
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

// Smallest encodings, for checking a declared count against the bytes
// that remain: an upsert is six one-byte fields (seq, four empty
// strings, expiry), a journal entry four (seq, flag, two empty strings).
constexpr std::size_t kMinUpsertBytes = 6;
constexpr std::size_t kMinJournalBytes = 4;

// Field reads for the decoder below, each false once the payload is
// short or malformed. The int64 fields are the zig-zag expiries.
bool read_field(BufReader& r, std::int64_t& out) {
  std::uint64_t v = 0;
  if (!get_varint(r, v)) return false;
  out = unzigzag(v);
  return true;
}

bool read_field(BufReader& r, bool& out) {
  auto v = r.u8();
  if (v.is_ok()) out = v.value() != 0;
  return v.is_ok();
}

bool read_field(BufReader& r, std::string& out) {
  std::string_view v;
  if (!get_string(r, v)) return false;
  out.assign(v);
  return true;
}

bool read_field(BufReader& r, UpsertRecord& u) {
  return get_varint(r, u.seq) && read_field(r, u.name) &&
         read_field(r, u.category) && read_field(r, u.origin) &&
         read_field(r, u.digest) && read_field(r, u.expires_at);
}

bool read_field(BufReader& r, JournalEntry& j) {
  return get_varint(r, j.seq) && read_field(r, j.remove) &&
         read_field(r, j.name) && read_field(r, j.digest);
}

bool read_field(BufReader& r, CheckpointRecord& cp) {
  std::uint64_t n = 0;
  if (!(get_varint(r, cp.epoch) && get_varint(r, cp.seq) &&
        get_varint(r, cp.compacted_through) && get_varint(r, n)) ||
      n > r.remaining() / kMinUpsertBytes) {
    return false;
  }
  cp.entries.resize(n);
  for (UpsertRecord& e : cp.entries) {
    if (!read_field(r, e)) return false;
  }
  if (!get_varint(r, n) || n > r.remaining() / kMinJournalBytes) {
    return false;
  }
  cp.journal.resize(n);
  for (JournalEntry& j : cp.journal) {
    if (!read_field(r, j)) return false;
  }
  return true;
}

// The fields after the type byte.
bool read_field(BufReader& r, Record& rec) {
  switch (rec.type) {
    case RecordType::kEpoch: return get_varint(r, rec.epoch.epoch);
    case RecordType::kBody:
      return read_field(r, rec.body.digest) && read_field(r, rec.body.body);
    case RecordType::kUpsert: return read_field(r, rec.upsert);
    case RecordType::kRemove:
      return get_varint(r, rec.remove.seq) && read_field(r, rec.remove.name) &&
             read_field(r, rec.remove.digest);
    case RecordType::kTouch:
      return read_field(r, rec.touch.name) &&
             read_field(r, rec.touch.expires_at);
    case RecordType::kCheckpoint: return read_field(r, rec.checkpoint);
  }
  return false;
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
  BufReader r(payload);
  auto type = r.u8();
  if (!type.is_ok()) return protocol_error("store record: empty payload");
  if (type.value() < static_cast<std::uint8_t>(RecordType::kEpoch) ||
      type.value() > static_cast<std::uint8_t>(RecordType::kCheckpoint)) {
    return protocol_error("store record: unknown type " +
                          std::to_string(type.value()));
  }
  Record rec;
  rec.type = static_cast<RecordType>(type.value());
  if (!read_field(r, rec) || !r.at_end()) {
    return protocol_error(std::string("store record: malformed ") +
                          record_type_name(rec.type) + " payload");
  }
  return rec;
}

}  // namespace hcm::store
