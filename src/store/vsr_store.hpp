// VsrStore: the durable backing store of the Virtual Service Repository
// (docs/PERSISTENCE.md). Directory layout:
//
//   <dir>/log           append-only hash-chained record log (RecordLog)
//   <dir>/pack-NNNNNN.pack   immutable delta-compressed body packs
//
// Every journaled registry change (publish/unpublish/lease expiry) is
// written through as log records; WSDL bodies ride once per digest and
// are rolled into delta-compressed packs when the log exceeds the
// compaction threshold. On open() the store replays packs + log and
// exposes the recovered {epoch, seq, entries, resync journal}, so a
// restarted UddiRegistry resumes the exact incarnation its clients
// hold cursors for — no epoch bump, no snapshot resyncs. A torn or
// corrupt log tail truncates to the last intact record and flags
// lost_tail, which the registry answers with an epoch bump (the PR 3
// resync path) instead of serving silently rolled-back state.
//
// Determinism: the store never reads a clock or any other ambient
// state — durability timestamps (lease expiries) come from the caller,
// and compaction triggers on bytes, not time.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "store/codec.hpp"
#include "store/pack.hpp"
#include "store/record_log.hpp"

namespace hcm::store {

struct VsrStoreOptions {
  std::string dir;
  RecordLog::FsyncPolicy fsync = RecordLog::FsyncPolicy::kCommit;
  // Roll the log into a pack + checkpoint once it exceeds this many
  // bytes (checked at commit boundaries).
  std::uint64_t compact_threshold_bytes = 1 << 20;
  // Mirror of the registry's journal capacity: how many resync-window
  // entries checkpoints retain.
  std::size_t journal_capacity = 128;
};

// What replay found. `fresh` means the directory held no epoch yet
// (brand-new store); `lost_tail` means at least one committed-then-
// corrupted record was truncated away and clients may hold state the
// store no longer has — the registry must bump its epoch.
struct RecoveredState {
  bool fresh = true;
  bool lost_tail = false;
  std::uint64_t epoch = 0;
  std::uint64_t last_seq = 0;
  std::uint64_t compacted_through = 0;
  std::vector<UpsertRecord> entries;   // live set, name-ascending
  std::vector<JournalEntry> journal;   // resync window, seq-ascending
};

// Pure replay state machine over decoded log records — the single
// definition of what a record sequence *means*, shared by live
// recovery, fsck and stats so they can never diverge.
struct LogMirror {
  bool fresh = true;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint64_t compacted_through = 0;
  std::size_t journal_capacity = static_cast<std::size_t>(-1);
  std::map<std::string, UpsertRecord> entries;  // by name
  std::deque<JournalEntry> journal;             // resync window
  std::map<std::string, std::string> bodies;    // un-packed, digest -> body
  std::vector<std::string> body_order;          // insertion order
  std::map<std::string, std::string> delta_hint;  // digest -> prior rev

  void apply(const Record& r);
};

class VsrStore {
 public:
  explicit VsrStore(VsrStoreOptions options) : options_(std::move(options)) {}

  [[nodiscard]] Status open();
  [[nodiscard]] const RecoveredState& recovered() const { return recovered_; }
  [[nodiscard]] const std::string& dir() const { return options_.dir; }

  // Resolves a digest to its document, from the un-packed log bodies or
  // the packs (materialize(): newest first, cycles refused).
  [[nodiscard]] Result<std::string> body_for(const std::string& digest) const;

  // --- write-through (staged; durable at the next commit()) -----------
  void record_epoch(std::uint64_t epoch);
  void record_upsert(const UpsertRecord& rec, const std::string& body);
  void record_remove(const RemoveRecord& rec);
  void record_touch(const std::string& name, std::int64_t expires_at);

  // Group commit: one write + one fsync for everything staged since the
  // last commit, then a compaction check.
  [[nodiscard]] Status commit();
  // Forces a pack roll + log checkpoint regardless of the threshold.
  [[nodiscard]] Status compact();

  // --- observability ---------------------------------------------------
  [[nodiscard]] std::uint64_t log_bytes() const { return log_.size_bytes(); }
  [[nodiscard]] std::uint64_t pack_bytes() const;
  [[nodiscard]] std::size_t pack_count() const { return packs_.size(); }
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }
  [[nodiscard]] std::uint64_t commits() const { return log_.commits(); }
  [[nodiscard]] std::uint64_t fsyncs() const { return log_.fsyncs(); }

  // --- fsck / stats (standalone; used by the hcm_store CLI) ------------
  struct FsckReport {
    bool ok = true;
    std::vector<std::string> errors;
    std::size_t log_records = 0;
    std::size_t packs = 0;
    std::size_t pack_entries = 0;
    std::size_t bodies_verified = 0;
  };
  [[nodiscard]] static FsckReport fsck(const std::string& dir);

  struct StatsReport {
    std::uint64_t log_bytes = 0;
    std::size_t log_records = 0;
    std::map<std::string, std::size_t> records_by_type;
    std::size_t packs = 0;
    std::uint64_t pack_bytes = 0;
    std::size_t pack_entries = 0;
    std::size_t delta_entries = 0;
    std::uint64_t stored_body_bytes = 0;    // bytes as stored (full+delta)
    std::uint64_t expanded_body_bytes = 0;  // bytes once materialized
    std::size_t live_entries = 0;
    std::uint64_t epoch = 0;
    std::uint64_t last_seq = 0;
    [[nodiscard]] double delta_ratio() const {
      return stored_body_bytes == 0
                 ? 1.0
                 : static_cast<double>(expanded_body_bytes) /
                       static_cast<double>(stored_body_bytes);
    }
  };
  [[nodiscard]] static Result<StatsReport> stats(const std::string& dir);

 private:
  void stage(const Record& r);
  [[nodiscard]] Status rewrite_log_checkpoint();
  [[nodiscard]] std::string pack_path(std::uint64_t n) const;

  VsrStoreOptions options_;
  RecordLog log_;
  PackSet packs_;
  std::uint64_t next_pack_ = 1;
  RecoveredState recovered_;
  // Mirror of the registry state the log describes, maintained on both
  // replay and write-through so compaction can checkpoint without
  // asking the registry.
  LogMirror mirror_;
  std::uint64_t compactions_ = 0;
};

}  // namespace hcm::store
