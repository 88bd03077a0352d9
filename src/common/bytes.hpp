// Byte-buffer primitives: every wire protocol in the repo (Jini call
// protocol, CM11A frames, HAVi messages, the binary VSG codec) is built
// on these big-endian reader/writer helpers.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace hcm {

using Bytes = std::vector<std::uint8_t>;
// Borrowed contiguous bytes (a Bytes, a pooled block run, a scratch copy).
using ByteView = std::span<const std::uint8_t>;

inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}
inline std::string to_string(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

// Big-endian primitive encoder over a byte sink. `Sink` derives from it
// and provides append(const void*, std::size_t): BufWriter (a growable
// Bytes) and BlockStream (pooled blocks) are the two sinks, so a single
// encoder — encode_value, the binary frame header — writes into either.
template <typename Sink>
class BigEndianWriter {
 public:
  void put_u8(std::uint8_t v) { sink().append(&v, 1); }
  void put_u16(std::uint16_t v) { put_be(v); }
  void put_u32(std::uint32_t v) { put_be(v); }
  void put_u64(std::uint64_t v) { put_be(v); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  // Length-prefixed (u32) byte string.
  void put_bytes(const Bytes& b) {
    put_u32(static_cast<std::uint32_t>(b.size()));
    put_raw(b);
  }
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s);
  }
  // Raw append, no length prefix.
  void put_raw(ByteView b) { sink().append(b.data(), b.size()); }
  void put_raw(std::string_view s) { sink().append(s.data(), s.size()); }

 private:
  template <typename T>
  void put_be(T v) {
    std::uint8_t b[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
    }
    sink().append(b, sizeof(T));
  }
  Sink& sink() { return static_cast<Sink&>(*this); }
};

// Appends big-endian encoded primitives to a growable buffer.
class BufWriter : public BigEndianWriter<BufWriter> {
 public:
  BufWriter() = default;
  // Writes into `buf`'s storage from the start: a recycled buffer
  // (net::Network::datagram_buffer) keeps its capacity, not its bytes.
  explicit BufWriter(Bytes buf) : buf_(std::move(buf)) { buf_.clear(); }

  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  // Sizes the buffer once for a message of about n bytes, so the puts
  // that follow do not regrow it.
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

// Bounds-checked big-endian reader over a borrowed buffer. Every check
// is `remaining() >= n`, which cannot overflow; the durable store's
// little-endian and varint reads (store/codec.hpp) sit on top of it.
class BufReader {
 public:
  BufReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BufReader(ByteView buf) : BufReader(buf.data(), buf.size()) {}
  explicit BufReader(std::string_view buf)
      : BufReader(reinterpret_cast<const std::uint8_t*>(buf.data()),
                  buf.size()) {}

  [[nodiscard]] Result<std::uint8_t> u8() { return be<std::uint8_t>(); }
  [[nodiscard]] Result<std::uint16_t> u16() { return be<std::uint16_t>(); }
  [[nodiscard]] Result<std::uint32_t> u32() { return be<std::uint32_t>(); }
  [[nodiscard]] Result<std::uint64_t> u64() { return be<std::uint64_t>(); }
  [[nodiscard]] Result<std::int64_t> i64();
  [[nodiscard]] Result<double> f64();
  [[nodiscard]] Result<Bytes> bytes();
  [[nodiscard]] Result<std::string> string();
  // The next n bytes, borrowed from the buffer (no length prefix).
  [[nodiscard]] Result<std::string_view> view(std::size_t n);

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  [[nodiscard]] bool has(std::size_t n) const { return remaining() >= n; }
  template <typename T>
  [[nodiscard]] Result<T> be() {
    if (!has(sizeof(T))) return protocol_error("buffer underrun");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>((v << 8) | data_[pos_++]);
    }
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Hex dump (diagnostics / tests).
std::string to_hex(const Bytes& b);

}  // namespace hcm
