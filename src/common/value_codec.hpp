// Compact tag-length-value binary codec for Value. This is the "Java
// object serialization" stand-in used by the Jini-like call protocol and
// the binary VSG protocol ablation (bench_ablation_vsg_protocol).
#pragma once

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/value.hpp"

namespace hcm {

// Deepest nesting the value decoders accept (this binary codec and the
// SOAP XML one); a top-level value is depth 0. Bounds their recursion,
// so hostile input is rejected with a Status instead of exhausting the
// stack.
inline constexpr int kMaxValueDepth = 64;

// Deepest nesting the document parsers accept (JSON values, counted
// from 0 at the top level like kMaxValueDepth; XML elements, counted
// from 1 at the root). Bounds the JSON parser's recursion and the
// open-element stack of xml::PullParser, which every XML reader walks
// (skip_element over an unknown subtree included).
inline constexpr int kMaxDocumentDepth = 256;

// Largest message a peer may announce: a length-prefixed frame's
// payload (FrameReader) or an HTTP body's Content-Length
// (http::MessageParser). Both reject a larger announcement before
// buffering any of its bytes.
inline constexpr std::uint32_t kMaxMessageBytes = 16 * 1024 * 1024;

// One encoder over either sink, BufWriter or BlockStream (instantiated
// for both in value_codec.cpp).
template <typename Sink>
void encode_value(const Value& v, BigEndianWriter<Sink>& w);
// Same bytes as encode_value(Value(list), w), without copying the list.
template <typename Sink>
void encode_value(const ValueList& list, BigEndianWriter<Sink>& w);
[[nodiscard]] Bytes encode_value(const Value& v);

[[nodiscard]] Result<Value> decode_value(BufReader& r);
// Decodes a list value into `out`, reusing its capacity.
[[nodiscard]] Status decode_value(BufReader& r, ValueList& out);
[[nodiscard]] Result<Value> decode_value(ByteView b);

}  // namespace hcm
