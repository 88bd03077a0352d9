// Chained-block byte stream over BlockPool blocks — the buffer currency
// of the wire path (gromox STREAM-style). A stream owns a singly linked
// chain of 16 KB blocks: appends fill the tail, consumes drain the head
// (releasing exhausted blocks back to the pool), and two streams splice
// in O(1) by relinking chains, so a serialized message travels from
// codec to stream to parser without a single byte copy or heap
// allocation. Move-only: moving a stream moves four pointers.
//
// Reading is chunk-oriented: for_each_chunk walks the contiguous runs,
// view() returns a zero-copy string_view when the requested range lies
// inside one block (the overwhelmingly common case for HTTP heads) and
// falls back to a caller-provided scratch buffer when the range spans a
// boundary, and find() scans for a pattern across block seams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/block_pool.hpp"
#include "common/bytes.hpp"

namespace hcm {

class BlockStream : public BigEndianWriter<BlockStream> {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Draws blocks from `pool`, or from wire_pool() (the calling
  // thread's bound/shard/default pool) when none is given; the pool is
  // resolved lazily at the first append so a default-constructed
  // member picks up the binding of the thread that actually uses it.
  BlockStream() = default;
  explicit BlockStream(BlockPool* pool) : pool_(pool) {}
  ~BlockStream() { clear(); }

  BlockStream(const BlockStream&) = delete;
  BlockStream& operator=(const BlockStream&) = delete;
  BlockStream(BlockStream&& o) noexcept
      : head_(o.head_),
        tail_(o.tail_),
        size_(o.size_),
        front_off_(o.front_off_),
        pool_(o.pool_) {
    o.head_ = o.tail_ = nullptr;
    o.size_ = 0;
    o.front_off_ = 0;
  }
  BlockStream& operator=(BlockStream&& o) noexcept;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Releases every block back to its pool.
  void clear();

  // --- writing ----------------------------------------------------------
  void append(const void* data, std::size_t n);
  void append(std::string_view s) { append(s.data(), s.size()); }
  void append(const Bytes& b) { append(b.data(), b.size()); }
  void put(char c) { append(&c, 1); }
  // Overwrites [pos, pos+n), already written and inside the head block:
  // how a length prefix is patched once the body behind it is complete.
  void patch(std::size_t pos, const void* data, std::size_t n);

  // Splices `other`'s chain onto this stream's tail: O(1) relink when
  // possible, chunk-copy when it fits in the tail block's spare room or
  // its head is partially consumed. Either way `other` is left empty.
  void splice(BlockStream&& other);

  // --- reading ----------------------------------------------------------
  struct Chunk {
    const std::uint8_t* data;
    std::size_t size;
  };

  // Calls fn(Chunk) for each contiguous run, front to back.
  template <typename Fn>
  void for_each_chunk(Fn&& fn) const {
    for (const BlockHeader* b = head_; b != nullptr; b = b->next) {
      const std::size_t skip = b == head_ ? front_off_ : 0;
      if (b->used > skip) fn(Chunk{b->data() + skip, b->used - skip});
    }
  }

  // Copies [pos, pos+n) into dst; returns bytes copied (clamped).
  std::size_t copy_to(void* dst, std::size_t pos, std::size_t n) const;

  // View of [pos, pos+len): zero-copy within one block, else backed by
  // `scratch`. len is clamped to the stream size.
  [[nodiscard]] std::string_view view(std::size_t pos, std::size_t len,
                                      std::string& scratch) const;

  // First occurrence of `pat` at or after `from`, or npos.
  [[nodiscard]] std::size_t find(std::string_view pat,
                                 std::size_t from = 0) const;

  // Discards n bytes from the front, releasing drained blocks.
  void consume(std::size_t n);

  // Whole-stream copy-outs (diagnostics, legacy consumers).
  [[nodiscard]] std::string to_string() const;
  void append_to(std::string& out) const;
  void append_to(Bytes& out) const;

  // The pool backing this stream (resolving it now if still unbound).
  [[nodiscard]] BlockPool& pool();

 private:
  [[nodiscard]] bool match_at(const BlockHeader* b, std::size_t off,
                              std::string_view pat) const;

  BlockHeader* head_ = nullptr;
  BlockHeader* tail_ = nullptr;
  std::size_t size_ = 0;
  std::uint32_t front_off_ = 0;  // consumed bytes of head_
  BlockPool* pool_ = nullptr;    // resolved lazily
};

}  // namespace hcm
