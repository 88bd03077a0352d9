// Append-only hash-chained record log — the durability spine of the
// VSR store (docs/PERSISTENCE.md §"Log format").
//
// Frame layout (little-endian):
//   [u32 payload_len][u32 crc32(payload)][u64 chain][payload bytes]
// where chain = fnv1a64(previous frame's chain, payload); the first
// frame chains from kChainGenesis. The chain makes record order and
// content tamper-evident end to end: flipping any synced byte breaks
// every later frame, which `hcm_store fsck` reports.
//
// Durability is fsync-batched group commit: append() only stages bytes;
// commit() hands the whole batch to the OS with one write + one fsync,
// so a handler that journals several records (a prune's expiries plus
// an upsert, say) pays one disk round trip. Replay at open() verifies
// every frame and truncates the file at the first torn or corrupt one —
// a kill -9 mid-write costs at most the uncommitted tail, never a
// wedged store.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace hcm::store {

class RecordLog {
 public:
  enum class FsyncPolicy {
    kNone,    // no fsync (tests/benches where durability is not measured)
    kCommit,  // fsync once per commit() batch
  };

  RecordLog() = default;
  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  // One verified frame of an existing log file.
  struct Frame {
    std::string payload;
    std::uint64_t offset = 0;  // file offset of the frame header
  };

  // Result of a read-only walk of a log file. `valid_bytes` is the
  // offset just past the last intact frame; anything beyond it is torn
  // or corrupt (`tail_error` says how it failed).
  struct Scan {
    std::vector<Frame> frames;
    std::uint64_t valid_bytes = 0;
    std::uint64_t file_bytes = 0;
    std::uint64_t chain = 0;  // chain value after the last intact frame
    bool clean = true;        // false when trailing bytes were not a frame
    std::string tail_error;
  };

  // Verifies `path` without modifying it (fsck, stats). A missing file
  // scans as empty-and-clean.
  [[nodiscard]] static Result<Scan> scan_file(const std::string& path);

  // Opens (creating if absent) and replays the log. Verified payloads
  // are exposed via recovered(); a torn or corrupt tail is truncated
  // away and lost_tail() reports that records were dropped. Reopening
  // after close() is allowed (compaction swaps the file underneath).
  [[nodiscard]] Status open(const std::string& path, FsyncPolicy policy);
  void close();

  [[nodiscard]] const std::vector<std::string>& recovered() const {
    return recovered_;
  }
  [[nodiscard]] bool lost_tail() const { return lost_tail_; }

  // Drops recovered record i and everything after it, truncating the
  // file accordingly — for callers whose payload-level decode fails on
  // a CRC-clean frame (treated exactly like a torn tail).
  [[nodiscard]] Status truncate_recovered(std::size_t first_bad);

  // Stages one payload; bytes reach the OS at the next commit().
  void append(std::string_view payload);
  // Writes and (policy permitting) fsyncs all staged payloads.
  [[nodiscard]] Status commit();

  [[nodiscard]] std::uint64_t size_bytes() const {
    return durable_bytes_ + pending_.size();
  }
  [[nodiscard]] std::uint64_t chain() const { return chain_; }
  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::uint64_t commits() const { return commits_; }
  [[nodiscard]] std::uint64_t fsyncs() const { return fsyncs_; }

 private:
  int fd_ = -1;
  std::string path_;
  FsyncPolicy policy_ = FsyncPolicy::kCommit;
  std::string pending_;
  std::uint64_t durable_bytes_ = 0;
  std::uint64_t chain_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t fsyncs_ = 0;
  bool lost_tail_ = false;
  std::vector<std::string> recovered_;
  std::vector<std::uint64_t> recovered_offsets_;
  std::vector<std::uint64_t> recovered_chains_;
};

}  // namespace hcm::store
