// On-disk codec for the durable VSR store (docs/PERSISTENCE.md): the
// record types the append-only log carries, their binary encoding, and
// the two integrity primitives everything above is keyed on — the
// FNV-1a content digest (the same digest soap::wsdl_digest exposes; the
// store owns the single implementation so a registry and its store can
// never disagree on "unchanged") and CRC32 for per-frame corruption
// detection.
//
// Every struct here has a codec round-trip fixture (hcm_lint's
// store-record rule mirrors the PR 3 registry-wire rule: adding a
// record type without a fixture fails the lint run).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/fnv.hpp"
#include "common/status.hpp"

namespace hcm::store {

// Stable content digest: FNV-1a 64-bit rendered as 16 lowercase hex
// chars. soap::wsdl_digest delegates here.
[[nodiscard]] std::string content_digest(std::string_view text);

// 64-bit FNV-1a folded over `bytes`, seeded with `seed` — the hash-chain
// step of the record log (seed = previous record's chain value).
[[nodiscard]] std::uint64_t chain_hash(std::uint64_t seed,
                                       std::string_view bytes);

// The FNV-1a offset basis; genesis seed of every log's hash chain.
inline constexpr std::uint64_t kChainGenesis = kFnv1aOffset;

// CRC32 (IEEE, reflected) over bytes.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes);

// --- primitive encoding -------------------------------------------------
// LEB128-style varints and length-prefixed strings; fixed-width u32/u64
// are little-endian (frame headers, pack index). Writers append to the
// caller's buffer. Each get_* is the matching read over the one bounded
// reader: false on underrun or an overlong varint, never a read past
// the end, so a decoder can chain reads with && and check once.
void put_varint(std::string& out, std::uint64_t v);
void put_string(std::string& out, std::string_view s);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
[[nodiscard]] bool get_varint(BufReader& r, std::uint64_t& out);
[[nodiscard]] bool get_string(BufReader& r, std::string_view& out);
[[nodiscard]] bool get_u32(BufReader& r, std::uint32_t& out);
[[nodiscard]] bool get_u64(BufReader& r, std::uint64_t& out);

// --- store files ---------------------------------------------------------
// Whole-file read, and a full write retried on EINTR whose errors read
// "write <kind> <path>: ..."; fsync stays with the caller.
[[nodiscard]] Result<std::string> read_file(const std::string& path);
[[nodiscard]] Status write_all(int fd, std::string_view bytes,
                               const char* kind, const std::string& path);

// --- record types -------------------------------------------------------

enum class RecordType : std::uint8_t {
  kEpoch = 1,       // registry incarnation stamp
  kBody = 2,        // WSDL document content, keyed by digest
  kUpsert = 3,      // journaled publish (body rides in a kBody record)
  kRemove = 4,      // journaled unpublish / lease expiry
  kTouch = 5,       // lease renewal: expiry moved, content unchanged
  kCheckpoint = 6,  // compaction: full live set + resync-window tail
};

[[nodiscard]] std::vector<RecordType> all_record_types();
[[nodiscard]] const char* record_type_name(RecordType t);

struct EpochRecord {
  std::uint64_t epoch = 0;
  bool operator==(const EpochRecord&) const = default;
};

struct BodyRecord {
  std::string digest;
  std::string body;
  bool operator==(const BodyRecord&) const = default;
};

struct UpsertRecord {
  std::uint64_t seq = 0;
  std::string name;
  std::string category;
  std::string origin;
  std::string digest;
  // Durability timestamps come from the caller (the registry's sim
  // clock) — the store never reads a clock of its own.
  std::int64_t expires_at = 0;
  bool operator==(const UpsertRecord&) const = default;
};

struct RemoveRecord {
  std::uint64_t seq = 0;
  std::string name;
  std::string digest;  // digest at removal time (resync-window payload)
  bool operator==(const RemoveRecord&) const = default;
};

struct TouchRecord {
  std::string name;
  std::int64_t expires_at = 0;
  bool operator==(const TouchRecord&) const = default;
};

// One resync-window journal entry (mirror of the registry's in-memory
// JournalRecord), persisted inside checkpoints.
struct JournalEntry {
  std::uint64_t seq = 0;
  bool remove = false;
  std::string name;
  std::string digest;
  bool operator==(const JournalEntry&) const = default;
};

struct CheckpointRecord {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint64_t compacted_through = 0;
  std::vector<UpsertRecord> entries;  // live set; bodies live in packs
  std::vector<JournalEntry> journal;  // resync window, seq-ascending
  bool operator==(const CheckpointRecord&) const = default;
};

// Tagged union of everything the log can carry.
struct Record {
  RecordType type = RecordType::kEpoch;
  EpochRecord epoch;
  BodyRecord body;
  UpsertRecord upsert;
  RemoveRecord remove;
  TouchRecord touch;
  CheckpointRecord checkpoint;
  bool operator==(const Record&) const = default;
};

[[nodiscard]] std::string encode_record(const Record& r);
[[nodiscard]] Result<Record> decode_record(std::string_view payload);

}  // namespace hcm::store
