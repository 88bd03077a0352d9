// Pack files: compacted, delta-compressed storage of WSDL documents,
// keyed by content digest (docs/PERSISTENCE.md §"Pack format"). The
// git object-store shape: a log segment's full bodies are rolled into
// one immutable pack where each revision is stored either whole
// ("full") or as a delta against the prior revision of the same
// service; a sorted digest index at the tail gives O(log n) lookup.
//
// File layout (little-endian):
//   "HCMPACK1"
//   entry*:  u8 kind (0 full, 1 delta) | digest (len-prefixed)
//            | base digest (len-prefixed, delta only)
//            | u32 data_len | data | u32 crc32(kind..data)
//   index:   u32 count | count * (digest len-prefixed | u64 offset),
//            sorted by digest
//   footer:  u64 index_offset | u32 crc32(index) | "HCMPKIX1"
// Packs are written to a temp name and renamed into place, so a crash
// during compaction never leaves a half-written pack visible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace hcm::store {

struct PackEntry {
  std::string digest;
  std::string base_digest;  // empty = stored whole
  std::string data;         // full body, or delta against base_digest
};

class PackWriter {
 public:
  void add_full(const std::string& digest, std::string_view body);
  void add_delta(const std::string& digest, const std::string& base_digest,
                 std::string_view delta);

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  // Serializes entries + index + footer to `path` and fsyncs the file.
  [[nodiscard]] Status write(const std::string& path) const;

 private:
  std::vector<PackEntry> entries_;
};

class PackReader {
 public:
  [[nodiscard]] Status open(const std::string& path);

  [[nodiscard]] bool contains(const std::string& digest) const;
  // Binary search of the index, then a CRC-checked entry decode.
  [[nodiscard]] Result<PackEntry> read(const std::string& digest) const;

  [[nodiscard]] const std::vector<std::string>& digests() const {
    return digests_;
  }
  [[nodiscard]] std::size_t entry_count() const { return digests_.size(); }
  [[nodiscard]] std::uint64_t size_bytes() const { return data_.size(); }

 private:
  [[nodiscard]] Result<PackEntry> read_at(std::uint64_t offset) const;

  std::string path_;
  std::string data_;
  std::vector<std::string> digests_;       // sorted
  std::vector<std::uint64_t> offsets_;     // parallel to digests_
};

// The packs of one store directory, oldest first.
using PackSet = std::vector<PackReader>;

// Longest delta chain compaction writes. Reads accept any acyclic
// chain, since older stores hold longer ones.
inline constexpr std::size_t kMaxDeltaChain = 16;

struct Materialized {
  std::string body;
  std::size_t depth = 0;  // deltas applied to reach `body`
  std::string root;       // digest of the whole body the chain ends at
};

// The one delta-chain walk (body_for, compaction, fsck, stats): finds
// `digest` in the newest pack holding it and follows its bases down to
// a whole body, then applies the deltas back up. A missing or corrupt
// link or a cycle is a non-OK Status; the walk is iterative and stops
// after as many links as the set has entries.
[[nodiscard]] Result<Materialized> materialize(const PackSet& packs,
                                               const std::string& digest);

}  // namespace hcm::store
