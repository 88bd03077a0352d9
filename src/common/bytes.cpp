#include "common/bytes.hpp"

namespace hcm {

Result<std::int64_t> BufReader::i64() {
  auto v = u64();
  if (!v.is_ok()) return v.status();
  return static_cast<std::int64_t>(v.value());
}

Result<double> BufReader::f64() {
  auto v = u64();
  if (!v.is_ok()) return v.status();
  return std::bit_cast<double>(v.value());
}

Result<std::string_view> BufReader::view(std::size_t n) {
  if (!has(n)) return protocol_error("buffer underrun reading bytes");
  std::string_view out(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return out;
}

Result<Bytes> BufReader::bytes() {
  auto len = u32();
  if (!len.is_ok()) return len.status();
  auto v = view(len.value());
  if (!v.is_ok()) return v.status();
  return Bytes(v.value().begin(), v.value().end());
}

Result<std::string> BufReader::string() {
  auto len = u32();
  if (!len.is_ok()) return len.status();
  auto v = view(len.value());
  if (!v.is_ok()) return v.status();
  return std::string(v.value());
}

std::string to_hex(const Bytes& b) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 3);
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i != 0) out.push_back(' ');
    out.push_back(kHex[b[i] >> 4]);
    out.push_back(kHex[b[i] & 0xF]);
  }
  return out;
}

}  // namespace hcm
