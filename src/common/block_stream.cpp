#include "common/block_stream.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace hcm {

BlockStream& BlockStream::operator=(BlockStream&& o) noexcept {
  if (this != &o) {
    clear();
    head_ = o.head_;
    tail_ = o.tail_;
    size_ = o.size_;
    front_off_ = o.front_off_;
    pool_ = o.pool_;
    o.head_ = o.tail_ = nullptr;
    o.size_ = 0;
    o.front_off_ = 0;
  }
  return *this;
}

void BlockStream::clear() {
  BlockHeader* b = head_;
  while (b != nullptr) {
    BlockHeader* next = b->next;
    BlockPool::release(b);
    b = next;
  }
  head_ = tail_ = nullptr;
  size_ = 0;
  front_off_ = 0;
}

BlockPool& BlockStream::pool() {
  if (pool_ == nullptr) pool_ = &wire_pool();
  return *pool_;
}

void BlockStream::append(const void* data, std::size_t n) {
  const auto* src = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    if (tail_ == nullptr || tail_->used == BlockPool::kBlockCapacity) {
      BlockHeader* b = pool().acquire();
      if (tail_ == nullptr) {
        head_ = tail_ = b;
      } else {
        tail_->next = b;
        tail_ = b;
      }
    }
    const std::size_t room = BlockPool::kBlockCapacity - tail_->used;
    const std::size_t take = std::min(room, n);
    std::memcpy(tail_->data() + tail_->used, src, take);
    tail_->used += static_cast<std::uint32_t>(take);
    src += take;
    n -= take;
    size_ += take;
  }
}

void BlockStream::splice(BlockStream&& other) {
  if (other.empty()) {
    other.clear();  // may still hold a fully consumed chain
    return;
  }
  // Copy instead of relinking when the chain fits in the tail block's
  // spare room, so a trickle of small deliveries fills one block rather
  // than pinning a 16 KB block per segment; and when its head is
  // partially consumed, since relinking would resurrect that prefix.
  const bool fits = tail_ != nullptr &&
                    other.size_ <= BlockPool::kBlockCapacity - tail_->used;
  if (fits || other.front_off_ != 0) {
    other.for_each_chunk(
        [this](Chunk c) { append(c.data, c.size); });
    other.clear();
    return;
  }
  if (head_ == nullptr) {
    head_ = other.head_;
  } else {
    tail_->next = other.head_;
  }
  tail_ = other.tail_;
  size_ += other.size_;
  if (pool_ == nullptr) pool_ = other.pool_;
  other.head_ = other.tail_ = nullptr;
  other.size_ = 0;
}

std::size_t BlockStream::copy_to(void* dst, std::size_t pos,
                                 std::size_t n) const {
  if (pos >= size_) return 0;
  n = std::min(n, size_ - pos);
  auto* out = static_cast<std::uint8_t*>(dst);
  std::size_t skip = pos;
  std::size_t left = n;
  for (const BlockHeader* b = head_; b != nullptr && left > 0; b = b->next) {
    const std::size_t off = b == head_ ? front_off_ : 0;
    const std::size_t len = b->used - off;
    if (skip >= len) {
      skip -= len;
      continue;
    }
    const std::size_t take = std::min(len - skip, left);
    std::memcpy(out, b->data() + off + skip, take);
    out += take;
    left -= take;
    skip = 0;
  }
  return n;
}

void BlockStream::patch(std::size_t pos, const void* data, std::size_t n) {
  HCM_CHECK_MSG(head_ != nullptr && front_off_ + pos + n <= head_->used,
                "patch must lie inside the head block");
  std::memcpy(head_->data() + front_off_ + pos, data, n);
}

std::string_view BlockStream::view(std::size_t pos, std::size_t len,
                                   std::string& scratch) const {
  if (pos >= size_) return {};
  len = std::min(len, size_ - pos);
  std::size_t skip = pos;
  for (const BlockHeader* b = head_; b != nullptr; b = b->next) {
    const std::size_t off = b == head_ ? front_off_ : 0;
    const std::size_t blen = b->used - off;
    if (skip >= blen) {
      skip -= blen;
      continue;
    }
    if (blen - skip >= len) {
      return std::string_view(
          reinterpret_cast<const char*>(b->data() + off + skip), len);
    }
    break;  // spans a block seam
  }
  scratch.resize(len);
  copy_to(scratch.data(), pos, len);
  return std::string_view(scratch);
}

bool BlockStream::match_at(const BlockHeader* b, std::size_t off,
                           std::string_view pat) const {
  // `off` is relative to b's logical data start (past any consumed
  // prefix when b is the head block).
  const std::uint8_t* data = b->data() + (b == head_ ? front_off_ : 0);
  std::size_t len = b->used - (b == head_ ? front_off_ : 0);
  std::size_t pi = 0;
  while (pi < pat.size()) {
    const std::size_t take = std::min(pat.size() - pi, len - off);
    if (std::memcmp(data + off, pat.data() + pi, take) != 0) return false;
    pi += take;
    off += take;
    if (pi < pat.size()) {
      b = b->next;
      if (b == nullptr) return false;
      data = b->data();
      len = b->used;
      off = 0;
    }
  }
  return true;
}

std::size_t BlockStream::find(std::string_view pat, std::size_t from) const {
  if (pat.empty()) return from <= size_ ? from : npos;
  if (size_ < pat.size()) return npos;
  const char first = pat.front();
  std::size_t base = 0;  // logical index of this block's first byte
  for (const BlockHeader* b = head_; b != nullptr; b = b->next) {
    const std::size_t off = b == head_ ? front_off_ : 0;
    const std::uint8_t* data = b->data() + off;
    const std::size_t len = b->used - off;
    std::size_t start = from > base ? from - base : 0;
    while (start < len) {
      const void* hit = std::memchr(data + start, first, len - start);
      if (hit == nullptr) break;
      const std::size_t idx =
          static_cast<std::size_t>(static_cast<const std::uint8_t*>(hit) -
                                   data);
      const std::size_t gpos = base + idx;
      if (gpos + pat.size() > size_) return npos;
      if (match_at(b, idx, pat)) return gpos;
      start = idx + 1;
    }
    base += len;
  }
  return npos;
}

void BlockStream::consume(std::size_t n) {
  n = std::min(n, size_);
  size_ -= n;
  if (size_ == 0) {
    // Fully drained: return everything, including a partially written
    // tail, so long-lived parsers do not pin blocks between messages.
    clear();
    return;
  }
  while (n > 0) {
    const std::size_t avail = head_->used - front_off_;
    if (n < avail) {
      front_off_ += static_cast<std::uint32_t>(n);
      return;
    }
    n -= avail;
    BlockHeader* next = head_->next;
    BlockPool::release(head_);
    head_ = next;
    front_off_ = 0;
  }
}

std::string BlockStream::to_string() const {
  std::string out;
  out.reserve(size_);
  append_to(out);
  return out;
}

void BlockStream::append_to(std::string& out) const {
  for_each_chunk([&out](Chunk c) {
    out.append(reinterpret_cast<const char*>(c.data), c.size);
  });
}

void BlockStream::append_to(Bytes& out) const {
  for_each_chunk(
      [&out](Chunk c) { out.insert(out.end(), c.data, c.data + c.size); });
}

}  // namespace hcm
