#include "store/vsr_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "store/delta.hpp"

namespace hcm::store {

namespace fs = std::filesystem;

namespace {

// Durability of a rename (pack publication, log checkpoint swap)
// requires the directory entry itself to reach disk.
Status fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return internal_error("open dir " + dir + ": " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const Status st =
        internal_error("fsync dir " + dir + ": " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::ok();
}

// Opens the packs of `dir`, oldest first (pack numbers are zero-padded,
// so name order is pack order). A pack that fails to open is left out
// and its Status appended to `bad`.
PackSet open_packs(const std::string& dir, std::vector<Status>& bad) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("pack-", 0) == 0 && name.size() > 10 &&
        name.compare(name.size() - 5, 5, ".pack") == 0) {
      paths.push_back(e.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  PackSet packs;
  for (const std::string& path : paths) {
    PackReader reader;
    Status st = reader.open(path);
    if (!st.is_ok()) {
      bad.push_back(std::move(st));
      continue;
    }
    packs.push_back(std::move(reader));
  }
  return packs;
}

// A delta smaller than 3/4 of the full body pays for its chain-walk
// cost; otherwise store the revision whole.
bool delta_worthwhile(std::size_t delta_size, std::size_t full_size) {
  return delta_size * 4 < full_size * 3;
}

}  // namespace

void LogMirror::apply(const Record& r) {
  switch (r.type) {
    case RecordType::kEpoch:
      epoch = r.epoch.epoch;
      fresh = false;
      break;
    case RecordType::kBody:
      if (bodies.emplace(r.body.digest, r.body.body).second) {
        body_order.push_back(r.body.digest);
      }
      break;
    case RecordType::kUpsert: {
      auto it = entries.find(r.upsert.name);
      if (it != entries.end() && it->second.digest != r.upsert.digest) {
        // Remember the prior revision of this service: pack compaction
        // delta-encodes the new body against it.
        delta_hint.emplace(r.upsert.digest, it->second.digest);
      }
      entries[r.upsert.name] = r.upsert;
      seq = std::max(seq, r.upsert.seq);
      journal.push_back(
          JournalEntry{r.upsert.seq, false, r.upsert.name, r.upsert.digest});
      break;
    }
    case RecordType::kRemove:
      entries.erase(r.remove.name);
      seq = std::max(seq, r.remove.seq);
      journal.push_back(
          JournalEntry{r.remove.seq, true, r.remove.name, r.remove.digest});
      break;
    case RecordType::kTouch: {
      auto it = entries.find(r.touch.name);
      if (it != entries.end()) it->second.expires_at = r.touch.expires_at;
      break;
    }
    case RecordType::kCheckpoint:
      fresh = false;
      epoch = r.checkpoint.epoch;
      seq = r.checkpoint.seq;
      compacted_through = r.checkpoint.compacted_through;
      entries.clear();
      for (const UpsertRecord& e : r.checkpoint.entries) {
        entries[e.name] = e;
      }
      journal.assign(r.checkpoint.journal.begin(),
                     r.checkpoint.journal.end());
      break;
  }
  while (journal.size() > journal_capacity) {
    compacted_through = journal.front().seq;
    journal.pop_front();
  }
}

Status VsrStore::open() {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return internal_error("create store dir " + options_.dir + ": " +
                          ec.message());
  }

  std::vector<Status> bad;
  packs_ = open_packs(options_.dir, bad);
  if (!bad.empty()) return bad.front();  // a corrupt pack is an fsck matter
  next_pack_ = packs_.size() + 1;

  mirror_ = LogMirror{};
  mirror_.journal_capacity = options_.journal_capacity;
  Status st = log_.open(options_.dir + "/log", options_.fsync);
  if (!st.is_ok()) return st;
  bool lost = log_.lost_tail();
  const auto& payloads = log_.recovered();
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    auto decoded = decode_record(payloads[i]);
    if (!decoded.is_ok()) {
      // CRC-clean frame whose payload no longer decodes: treat exactly
      // like a torn tail — drop it and everything after it.
      Status trunc = log_.truncate_recovered(i);
      if (!trunc.is_ok()) return trunc;
      lost = true;
      break;
    }
    mirror_.apply(decoded.value());
  }

  recovered_ = RecoveredState{};
  recovered_.fresh = mirror_.fresh;
  recovered_.lost_tail = lost;
  recovered_.epoch = mirror_.epoch;
  recovered_.last_seq = mirror_.seq;
  recovered_.compacted_through = mirror_.compacted_through;
  for (const auto& [name, e] : mirror_.entries) {
    recovered_.entries.push_back(e);
  }
  recovered_.journal.assign(mirror_.journal.begin(), mirror_.journal.end());
  return Status::ok();
}

Result<std::string> VsrStore::body_for(const std::string& digest) const {
  auto it = mirror_.bodies.find(digest);
  if (it != mirror_.bodies.end()) return it->second;
  auto packed = materialize(packs_, digest);
  if (!packed.is_ok()) return packed.status();
  return std::move(packed).take().body;
}

void VsrStore::record_epoch(std::uint64_t epoch) {
  Record r;
  r.type = RecordType::kEpoch;
  r.epoch.epoch = epoch;
  stage(r);
}

void VsrStore::record_upsert(const UpsertRecord& rec,
                             const std::string& body) {
  // One body per digest, ever: re-publishing known content (a digest
  // already in the log or any pack) costs no body bytes.
  const auto holds = [&](const PackReader& p) {
    return p.contains(rec.digest);
  };
  if (mirror_.bodies.count(rec.digest) == 0 &&
      std::none_of(packs_.begin(), packs_.end(), holds)) {
    Record b;
    b.type = RecordType::kBody;
    b.body.digest = rec.digest;
    b.body.body = body;
    stage(b);
  }
  Record r;
  r.type = RecordType::kUpsert;
  r.upsert = rec;
  stage(r);
}

void VsrStore::record_remove(const RemoveRecord& rec) {
  Record r;
  r.type = RecordType::kRemove;
  r.remove = rec;
  stage(r);
}

void VsrStore::record_touch(const std::string& name,
                            std::int64_t expires_at) {
  Record r;
  r.type = RecordType::kTouch;
  r.touch.name = name;
  r.touch.expires_at = expires_at;
  stage(r);
}

void VsrStore::stage(const Record& r) {
  log_.append(encode_record(r));
  mirror_.apply(r);
}

Status VsrStore::commit() {
  Status st = log_.commit();
  if (!st.is_ok()) return st;
  if (log_.size_bytes() > options_.compact_threshold_bytes) return compact();
  return Status::ok();
}

std::string VsrStore::pack_path(std::uint64_t n) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "pack-%06llu.pack",
                static_cast<unsigned long long>(n));
  return options_.dir + "/" + buf;
}

Status VsrStore::compact() {
  Status st = log_.commit();  // staged records must precede the roll
  if (!st.is_ok()) return st;

  if (!mirror_.body_order.empty()) {
    PackWriter writer;
    // Depth and root digest of each chain written to this pack.
    std::map<std::string, std::pair<std::size_t, std::string>> written;
    auto base_for = [&](const std::string& d) -> Result<Materialized> {
      auto w = written.find(d);
      if (w == written.end()) return materialize(packs_, d);
      return Materialized{mirror_.bodies[d], w->second.first, w->second.second};
    };
    for (const std::string& digest : mirror_.body_order) {
      const std::string& body = mirror_.bodies[digest];
      // Base: the prior revision, from this batch or any pack; past
      // kMaxDeltaChain deep, its chain's whole root (the chain restarts).
      Result<Materialized> base = not_found("no prior revision");
      std::string base_digest;
      if (auto hint = mirror_.delta_hint.find(digest);
          hint != mirror_.delta_hint.end()) {
        base_digest = hint->second;
        base = base_for(base_digest);
        if (base.is_ok() && base.value().depth >= kMaxDeltaChain) {
          base_digest = base.value().root;
          base = base_for(base_digest);
        }
      }
      std::string delta;
      if (base.is_ok()) delta = delta_encode(base.value().body, body);
      if (base.is_ok() && delta_worthwhile(delta.size(), body.size())) {
        writer.add_delta(digest, base_digest, delta);
        written[digest] = {base.value().depth + 1, base.value().root};
      } else {
        writer.add_full(digest, body);
        written[digest] = {0, digest};
      }
    }
    const std::string tmp = options_.dir + "/pack.tmp";
    st = writer.write(tmp);
    if (!st.is_ok()) return st;
    const std::string final_path = pack_path(next_pack_);
    std::error_code ec;
    fs::rename(tmp, final_path, ec);
    if (ec) {
      return internal_error("rename pack into place: " + ec.message());
    }
    st = fsync_dir(options_.dir);
    if (!st.is_ok()) return st;
    PackReader reader;
    st = reader.open(final_path);
    if (!st.is_ok()) return st;
    packs_.push_back(std::move(reader));
    ++next_pack_;
  }

  st = rewrite_log_checkpoint();
  if (!st.is_ok()) return st;
  mirror_.bodies.clear();
  mirror_.body_order.clear();
  mirror_.delta_hint.clear();
  ++compactions_;
  return Status::ok();
}

Status VsrStore::rewrite_log_checkpoint() {
  // Replace the log with [epoch][checkpoint] describing the live state;
  // bodies now live in packs. tmp + rename keeps a crash at any point
  // recoverable: either the old log or the new one is intact.
  Record epoch;
  epoch.type = RecordType::kEpoch;
  epoch.epoch.epoch = mirror_.epoch;
  Record cp;
  cp.type = RecordType::kCheckpoint;
  cp.checkpoint.epoch = mirror_.epoch;
  cp.checkpoint.seq = mirror_.seq;
  cp.checkpoint.compacted_through = mirror_.compacted_through;
  for (const auto& [name, e] : mirror_.entries) {
    cp.checkpoint.entries.push_back(e);
  }
  cp.checkpoint.journal.assign(mirror_.journal.begin(),
                               mirror_.journal.end());

  const std::string tmp = options_.dir + "/log.tmp";
  std::error_code ec;
  fs::remove(tmp, ec);
  {
    RecordLog fresh;
    Status st = fresh.open(tmp, options_.fsync);
    if (!st.is_ok()) return st;
    fresh.append(encode_record(epoch));
    fresh.append(encode_record(cp));
    st = fresh.commit();
    if (!st.is_ok()) return st;
  }
  log_.close();
  fs::rename(tmp, options_.dir + "/log", ec);
  if (ec) {
    return internal_error("rename checkpointed log into place: " +
                          ec.message());
  }
  Status st = fsync_dir(options_.dir);
  if (!st.is_ok()) return st;
  // Reopen; the mirror already holds this state, so replay feeds it the
  // same values it has (apply is idempotent for checkpoint+epoch).
  return log_.open(options_.dir + "/log", options_.fsync);
}

std::uint64_t VsrStore::pack_bytes() const {
  std::uint64_t total = 0;
  for (const PackReader& pack : packs_) total += pack.size_bytes();
  return total;
}

// --- fsck ---------------------------------------------------------------

VsrStore::FsckReport VsrStore::fsck(const std::string& dir) {
  FsckReport report;
  auto fail = [&report](std::string msg) {
    report.ok = false;
    report.errors.push_back(std::move(msg));
  };

  // Packs: structural open (magic, footer, index crc, sort order), then
  // every entry must decode, materialize through its delta chain, and
  // hash back to its own digest.
  std::vector<Status> bad;
  const PackSet packs = open_packs(dir, bad);
  for (const Status& st : bad) fail(st.message());
  report.packs = packs.size();

  for (const PackReader& pack : packs) {
    for (const std::string& digest : pack.digests()) {
      ++report.pack_entries;
      auto body = materialize(packs, digest);
      if (!body.is_ok()) {
        fail("pack entry " + digest + ": " + body.status().message());
        continue;
      }
      if (content_digest(body.value().body) != digest) {
        fail("pack entry " + digest +
             ": materialized body hashes to a different digest (bit rot "
             "inside a delta chain)");
        continue;
      }
      ++report.bodies_verified;
    }
  }

  // Log: every frame must pass crc + hash chain; every payload must
  // decode; the replayed live set must resolve every digest to a body
  // that hashes back to it.
  auto scanned = RecordLog::scan_file(dir + "/log");
  if (!scanned.is_ok()) {
    fail(scanned.status().message());
    return report;
  }
  const RecordLog::Scan& scan = scanned.value();
  if (!scan.clean) {
    fail("log: " + scan.tail_error + " (" +
         std::to_string(scan.file_bytes - scan.valid_bytes) +
         " trailing bytes unrecoverable; a store-backed registry restart "
         "truncates them and bumps the epoch)");
  }
  report.log_records = scan.frames.size();

  LogMirror mirror;
  std::uint64_t prev_journal_seq = 0;
  for (const RecordLog::Frame& f : scan.frames) {
    auto decoded = decode_record(f.payload);
    if (!decoded.is_ok()) {
      fail("log record at offset " + std::to_string(f.offset) + ": " +
           decoded.status().message());
      continue;
    }
    mirror.apply(decoded.value());
  }
  for (const JournalEntry& j : mirror.journal) {
    if (j.seq <= prev_journal_seq) {
      fail("journal sequence not strictly ascending at seq " +
           std::to_string(j.seq));
    }
    prev_journal_seq = j.seq;
  }
  for (const auto& [name, entry] : mirror.entries) {
    auto in_log = mirror.bodies.find(entry.digest);
    std::string body;
    if (in_log != mirror.bodies.end()) {
      body = in_log->second;
    } else {
      auto packed = materialize(packs, entry.digest);
      if (!packed.is_ok()) {
        fail("live entry '" + name + "': " + packed.status().message());
        continue;
      }
      body = std::move(packed).take().body;
    }
    if (content_digest(body) != entry.digest) {
      fail("live entry '" + name + "': body does not hash to its digest");
    }
  }
  return report;
}

// --- stats --------------------------------------------------------------

Result<VsrStore::StatsReport> VsrStore::stats(const std::string& dir) {
  StatsReport report;

  auto scanned = RecordLog::scan_file(dir + "/log");
  if (!scanned.is_ok()) return scanned.status();
  const RecordLog::Scan& scan = scanned.value();
  report.log_bytes = scan.file_bytes;
  report.log_records = scan.frames.size();

  LogMirror mirror;
  for (const RecordLog::Frame& f : scan.frames) {
    auto decoded = decode_record(f.payload);
    if (!decoded.is_ok()) return decoded.status();
    ++report.records_by_type[record_type_name(decoded.value().type)];
    mirror.apply(decoded.value());
  }
  report.live_entries = mirror.entries.size();
  report.epoch = mirror.epoch;
  report.last_seq = mirror.seq;

  std::vector<Status> bad;
  const PackSet packs = open_packs(dir, bad);
  if (!bad.empty()) return bad.front();
  report.packs = packs.size();
  for (const PackReader& pack : packs) {
    report.pack_bytes += pack.size_bytes();
    for (const std::string& digest : pack.digests()) {
      auto entry = pack.read(digest);
      if (!entry.is_ok()) return entry.status();
      ++report.pack_entries;
      if (!entry.value().base_digest.empty()) ++report.delta_entries;
      report.stored_body_bytes += entry.value().data.size();
      auto body = materialize(packs, digest);
      if (!body.is_ok()) return body.status();
      report.expanded_body_bytes += body.value().body.size();
    }
  }
  return report;
}

}  // namespace hcm::store
