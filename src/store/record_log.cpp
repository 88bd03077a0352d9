#include "store/record_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "store/codec.hpp"

namespace hcm::store {

namespace {

Status errno_status(const std::string& what, const std::string& path) {
  return internal_error(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

RecordLog::~RecordLog() { close(); }

Result<RecordLog::Scan> RecordLog::scan_file(const std::string& path) {
  Scan scan;
  scan.chain = kChainGenesis;
  // A missing (or unreadable) log scans as empty; open() creates it.
  auto file = read_file(path);
  const std::string data = file.is_ok() ? std::move(file).take() : "";
  scan.file_bytes = data.size();
  BufReader r(data);
  while (!r.at_end()) {
    const std::size_t pos = r.pos();
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::uint64_t chain = 0;
    if (!(get_u32(r, len) && get_u32(r, crc) && get_u64(r, chain)) ||
        r.remaining() < len) {
      scan.clean = false;
      scan.tail_error = "torn frame at offset " + std::to_string(pos) +
                        " (header or payload cut short)";
      break;
    }
    const std::string_view payload = r.view(len).value();
    if (crc32(payload) != crc) {
      scan.clean = false;
      scan.tail_error = "crc mismatch at offset " + std::to_string(pos);
      break;
    }
    if (chain_hash(scan.chain, payload) != chain) {
      scan.clean = false;
      scan.tail_error = "hash chain break at offset " + std::to_string(pos);
      break;
    }
    scan.chain = chain;
    scan.frames.push_back(Frame{std::string(payload), pos});
    scan.valid_bytes = r.pos();
  }
  return scan;
}

Status RecordLog::open(const std::string& path, FsyncPolicy policy) {
  close();
  path_ = path;
  policy_ = policy;
  lost_tail_ = false;
  recovered_.clear();
  recovered_offsets_.clear();
  recovered_chains_.clear();
  pending_.clear();

  auto scanned = scan_file(path);
  if (!scanned.is_ok()) return scanned.status();
  Scan scan = std::move(scanned).take();

  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY, 0644);
  if (fd_ < 0) return errno_status("open log", path);
  if (!scan.clean && scan.valid_bytes < scan.file_bytes) {
    // Torn or corrupt tail: everything past the last intact frame is
    // unrecoverable — drop it so the chain resumes from known-good
    // state. The caller learns via lost_tail() and bumps the epoch.
    if (::ftruncate(fd_, static_cast<off_t>(scan.valid_bytes)) != 0) {
      return errno_status("truncate log", path);
    }
    lost_tail_ = true;
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) return errno_status("seek log", path);

  durable_bytes_ = scan.valid_bytes;
  chain_ = scan.chain;
  records_ = scan.frames.size();
  std::uint64_t running = kChainGenesis;
  for (Frame& f : scan.frames) {
    running = chain_hash(running, f.payload);
    recovered_offsets_.push_back(f.offset);
    recovered_chains_.push_back(running);
    recovered_.push_back(std::move(f.payload));
  }
  return Status::ok();
}

void RecordLog::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status RecordLog::truncate_recovered(std::size_t first_bad) {
  if (first_bad >= recovered_.size()) return Status::ok();
  const std::uint64_t keep_bytes = recovered_offsets_[first_bad];
  if (::ftruncate(fd_, static_cast<off_t>(keep_bytes)) != 0) {
    return errno_status("truncate log", path_);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) return errno_status("seek log", path_);
  durable_bytes_ = keep_bytes;
  chain_ = first_bad == 0 ? kChainGenesis : recovered_chains_[first_bad - 1];
  records_ = first_bad;
  recovered_.resize(first_bad);
  recovered_offsets_.resize(first_bad);
  recovered_chains_.resize(first_bad);
  lost_tail_ = true;
  return Status::ok();
}

void RecordLog::append(std::string_view payload) {
  chain_ = chain_hash(chain_, payload);
  put_u32(pending_, static_cast<std::uint32_t>(payload.size()));
  put_u32(pending_, crc32(payload));
  put_u64(pending_, chain_);
  pending_.append(payload.data(), payload.size());
  ++records_;
}

Status RecordLog::commit() {
  if (pending_.empty()) return Status::ok();
  Status st = write_all(fd_, pending_, "log", path_);
  if (!st.is_ok()) return st;
  if (policy_ == FsyncPolicy::kCommit) {
    if (::fsync(fd_) != 0) return errno_status("fsync log", path_);
    ++fsyncs_;
  }
  durable_bytes_ += pending_.size();
  pending_.clear();
  ++commits_;
  return Status::ok();
}

}  // namespace hcm::store
