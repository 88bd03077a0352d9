// Length-prefixed framing for byte streams: a u32 big-endian payload
// length, then the payload. The one framer under the one framed RPC
// (net/binary_channel.hpp), which the binary VSG and Jini both ride.
#pragma once

#include <string>

#include "common/block_stream.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/value_codec.hpp"

namespace hcm {

// One frame built in place in a fresh pooled stream: `body(out)` writes
// the payload behind a length placeholder, patched once it is complete.
template <typename Body>
[[nodiscard]] BlockStream build_frame(Body&& body) {
  BlockStream out;
  out.put_u32(0);
  body(out);
  const auto n = static_cast<std::uint32_t>(out.size() - 4);
  const std::uint8_t len[4] = {
      static_cast<std::uint8_t>(n >> 24), static_cast<std::uint8_t>(n >> 16),
      static_cast<std::uint8_t>(n >> 8), static_cast<std::uint8_t>(n)};
  out.patch(0, len, sizeof(len));
  return out;
}

// Incremental deframer over pooled blocks: deliveries splice in, and
// each complete frame is handed over as one contiguous view — zero-copy
// when it lies inside a block, otherwise copied into a scratch buffer
// reused across frames — before its blocks are released.
class FrameReader {
 public:
  // Splices `data` in and calls on_frame(ByteView) -> Status for each
  // complete frame in order; the view lives only for that call. Stops at
  // the first non-ok on_frame result, and returns it, or at a length
  // prefix over kMaxMessageBytes, rejected as soon as its four bytes
  // arrive, before any payload is buffered.
  template <typename Fn>
  Status feed(BlockStream&& data, Fn&& on_frame) {
    buf_.splice(std::move(data));
    std::uint8_t prefix[4];
    while (buf_.copy_to(prefix, 0, 4) == 4) {
      const std::uint32_t len = BufReader(prefix, 4).u32().value();
      if (len > kMaxMessageBytes) {
        return protocol_error("frame too large: " + std::to_string(len));
      }
      if (buf_.size() - 4 < len) break;
      const std::string_view v = buf_.view(4, len, scratch_);
      Status s = on_frame(
          ByteView(reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
      buf_.consume(4 + std::size_t{len});
      if (!s.is_ok()) return s;
    }
    return Status::ok();
  }

 private:
  BlockStream buf_;
  std::string scratch_;
};

}  // namespace hcm
