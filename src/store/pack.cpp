#include "store/pack.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "store/codec.hpp"
#include "store/delta.hpp"

namespace hcm::store {

namespace {

constexpr char kMagic[] = "HCMPACK1";
constexpr char kFooterMagic[] = "HCMPKIX1";
constexpr std::size_t kMagicLen = 8;
constexpr std::size_t kFooterLen = 8 + 4 + kMagicLen;
// An index entry is at least an empty digest (one length byte) and a
// u64 offset.
constexpr std::size_t kMinIndexEntryBytes = 1 + 8;

}  // namespace

void PackWriter::add_full(const std::string& digest, std::string_view body) {
  entries_.push_back(PackEntry{digest, "", std::string(body)});
}

void PackWriter::add_delta(const std::string& digest,
                           const std::string& base_digest,
                           std::string_view delta) {
  entries_.push_back(PackEntry{digest, base_digest, std::string(delta)});
}

Status PackWriter::write(const std::string& path) const {
  std::string out(kMagic, kMagicLen);
  std::vector<std::pair<std::string, std::uint64_t>> index;
  index.reserve(entries_.size());
  for (const PackEntry& e : entries_) {
    index.emplace_back(e.digest, out.size());
    std::string frame;
    frame.push_back(e.base_digest.empty() ? 0 : 1);
    put_string(frame, e.digest);
    if (!e.base_digest.empty()) put_string(frame, e.base_digest);
    put_u32(frame, static_cast<std::uint32_t>(e.data.size()));
    frame += e.data;
    put_u32(frame, crc32(frame));
    out += frame;
  }
  std::sort(index.begin(), index.end());
  const std::uint64_t index_offset = out.size();
  std::string index_bytes;
  put_u32(index_bytes, static_cast<std::uint32_t>(index.size()));
  for (const auto& [digest, offset] : index) {
    put_string(index_bytes, digest);
    put_u64(index_bytes, offset);
  }
  out += index_bytes;
  put_u64(out, index_offset);
  put_u32(out, crc32(index_bytes));
  out.append(kFooterMagic, kMagicLen);

  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return internal_error("open pack " + path + ": " + std::strerror(errno));
  }
  Status st = write_all(fd, out, "pack", path);
  if (st.is_ok() && ::fsync(fd) != 0) {
    st = internal_error("fsync pack " + path + ": " + std::strerror(errno));
  }
  ::close(fd);
  return st;
}

Status PackReader::open(const std::string& path) {
  path_ = path;
  digests_.clear();
  offsets_.clear();
  auto data = read_file(path);
  if (!data.is_ok()) return data.status();
  data_ = std::move(data).take();

  if (data_.size() < kMagicLen + kFooterLen ||
      data_.compare(0, kMagicLen, kMagic, kMagicLen) != 0) {
    return protocol_error("pack " + path + ": bad or missing header magic");
  }
  if (data_.compare(data_.size() - kMagicLen, kMagicLen, kFooterMagic,
                    kMagicLen) != 0) {
    return protocol_error("pack " + path + ": bad footer magic");
  }
  BufReader footer(std::string_view(data_).substr(data_.size() - kFooterLen));
  std::uint64_t index_offset = 0;
  std::uint32_t index_crc = 0;
  if (!get_u64(footer, index_offset) || !get_u32(footer, index_crc) ||
      index_offset >= data_.size() - kFooterLen) {
    return protocol_error("pack " + path + ": index offset out of range");
  }
  const std::string_view index_bytes = std::string_view(data_).substr(
      index_offset, data_.size() - kFooterLen - index_offset);
  if (crc32(index_bytes) != index_crc) {
    return protocol_error("pack " + path + ": index crc mismatch");
  }
  BufReader r(index_bytes);
  std::uint32_t count = 0;
  if (!get_u32(r, count) || count > r.remaining() / kMinIndexEntryBytes) {
    return protocol_error("pack " + path + ": malformed index count");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string_view digest;
    std::uint64_t offset = 0;
    if (!get_string(r, digest) || !get_u64(r, offset) ||
        offset >= index_offset) {
      return protocol_error("pack " + path + ": malformed index entry");
    }
    if (!digests_.empty() && digest <= digests_.back()) {
      return protocol_error("pack " + path + ": index is not strictly sorted");
    }
    digests_.emplace_back(digest);
    offsets_.push_back(offset);
  }
  if (!r.at_end()) {
    return protocol_error("pack " + path + ": trailing index bytes");
  }
  return Status::ok();
}

bool PackReader::contains(const std::string& digest) const {
  return std::binary_search(digests_.begin(), digests_.end(), digest);
}

Result<PackEntry> PackReader::read(const std::string& digest) const {
  const auto it =
      std::lower_bound(digests_.begin(), digests_.end(), digest);
  if (it == digests_.end() || *it != digest) {
    return not_found("pack " + path_ + ": no entry for digest " + digest);
  }
  return read_at(offsets_[static_cast<std::size_t>(it - digests_.begin())]);
}

Result<PackEntry> PackReader::read_at(std::uint64_t offset) const {
  // offset < index offset < data_.size(): open() checked both.
  const std::string_view entry = std::string_view(data_).substr(offset);
  BufReader r(entry);
  const std::uint8_t kind = r.u8().value_or(0xff);
  std::string_view digest;
  std::string_view base;
  std::uint32_t len = 0;
  if (kind > 1 || !get_string(r, digest) ||
      (kind == 1 && !get_string(r, base)) || !get_u32(r, len)) {
    return protocol_error("pack " + path_ + ": malformed entry at offset " +
                          std::to_string(offset));
  }
  const std::size_t framed = r.pos() + len;
  auto data = r.view(len);
  std::uint32_t crc = 0;
  if (!data.is_ok() || !get_u32(r, crc)) {
    return protocol_error("pack " + path_ + ": entry data out of range");
  }
  if (crc32(entry.substr(0, framed)) != crc) {
    return protocol_error("pack " + path_ + ": entry crc mismatch for " +
                          std::string(digest));
  }
  return PackEntry{std::string(digest), std::string(base),
                   std::string(data.value())};
}

Result<Materialized> materialize(const PackSet& packs,
                                 const std::string& digest) {
  // Each digest resolves to one entry (its newest pack), so an acyclic
  // chain has fewer deltas than the set has entries; reaching that many
  // means a digest repeated. Stores written before compaction capped
  // same-batch chains hold chains past kMaxDeltaChain, and stay readable.
  std::size_t entries = 0;
  for (const PackReader& p : packs) entries += p.entry_count();
  std::vector<std::string> deltas;  // tip first
  std::string cur = digest;
  PackEntry e;
  for (;;) {
    const auto holder =
        std::find_if(packs.rbegin(), packs.rend(),
                     [&](const PackReader& p) { return p.contains(cur); });
    if (holder == packs.rend()) {
      return not_found("no pack holds digest " + cur);
    }
    auto entry = holder->read(cur);
    if (!entry.is_ok()) return entry.status();
    e = std::move(entry).take();
    if (e.base_digest.empty()) break;
    if (deltas.size() == entries) {
      return protocol_error("delta chain for " + digest + " repeats digest " +
                            cur + " (cycle)");
    }
    deltas.push_back(std::move(e.data));
    cur = std::move(e.base_digest);
  }
  Materialized out{std::move(e.data), deltas.size(), std::move(cur)};
  for (auto d = deltas.rbegin(); d != deltas.rend(); ++d) {
    auto next = delta_apply(out.body, *d);
    if (!next.is_ok()) return next.status();
    out.body = std::move(next).take();
  }
  return out;
}

}  // namespace hcm::store
