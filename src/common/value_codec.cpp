#include "common/value_codec.hpp"

#include <algorithm>

#include "common/block_stream.hpp"

namespace hcm {

namespace {

// Largest up-front reservation of a decoded list or map (see
// decode_list).
constexpr std::size_t kMaxListReserve = 1024;

Result<Value> decode_rec(BufReader& r, int depth);

// GCC 12 warns (-Wfree-nonheap-object) when the moved-from Value
// temporary here is destroyed: it follows the variant's Bytes branch
// with the moved string's inline buffer as the vector's pointer, a path
// the variant's index rules out.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"
template <typename T>
Result<Value> as_value(Result<T> r) {
  if (!r.is_ok()) return r.status();
  return Value(std::move(r).take());
}
#pragma GCC diagnostic pop

// Body of a list at `depth` (its tag already read) into `out`.
Status decode_list(BufReader& r, int depth, ValueList& out) {
  auto n = r.u32();
  if (!n.is_ok()) return n.status();
  if (n.value() > r.remaining()) {
    return protocol_error("list length exceeds buffer");
  }
  out.clear();
  // The count is checked against the bytes left, not the nesting: a
  // frame of nested lists each claiming the rest of the buffer would
  // reserve that much per level. Reserve at most kMaxListReserve before
  // any element has been decoded and let push_back grow past it.
  out.reserve(std::min<std::size_t>(n.value(), kMaxListReserve));
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto e = decode_rec(r, depth + 1);
    if (!e.is_ok()) return e.status();
    out.push_back(std::move(e).take());
  }
  return Status::ok();
}

Result<Value> decode_rec(BufReader& r, int depth) {
  if (depth > kMaxValueDepth) return protocol_error("value nesting too deep");
  auto tag = r.u8();
  if (!tag.is_ok()) return tag.status();
  switch (static_cast<ValueType>(tag.value())) {
    case ValueType::kNull:
      return Value();
    case ValueType::kBool: {
      auto b = r.u8();
      if (!b.is_ok()) return b.status();
      return Value(b.value() != 0);
    }
    case ValueType::kInt:
      return as_value(r.i64());
    case ValueType::kDouble:
      return as_value(r.f64());
    case ValueType::kString:
      return as_value(r.string());
    case ValueType::kBytes:
      return as_value(r.bytes());
    case ValueType::kList: {
      ValueList list;
      if (auto s = decode_list(r, depth, list); !s.is_ok()) return s;
      return Value(std::move(list));
    }
    case ValueType::kMap: {
      auto n = r.u32();
      if (!n.is_ok()) return n.status();
      if (n.value() > r.remaining()) {
        return protocol_error("map length exceeds buffer");
      }
      // Entries go in wire order and are sorted once at the end; the
      // first of a repeated key wins, as it would by emplace.
      std::vector<ValueMap::value_type> entries;
      entries.reserve(std::min<std::size_t>(n.value(), kMaxListReserve));
      for (std::uint32_t i = 0; i < n.value(); ++i) {
        auto k = r.string();
        if (!k.is_ok()) return k.status();
        auto e = decode_rec(r, depth + 1);
        if (!e.is_ok()) return e.status();
        entries.emplace_back(std::move(k).take(), std::move(e).take());
      }
      return Value(ValueMap::from_unsorted(std::move(entries),
                                           ValueMap::Duplicates::kKeepFirst));
    }
  }
  return protocol_error("unknown value tag " + std::to_string(tag.value()));
}

}  // namespace

template <typename Sink>
void encode_value(const ValueList& list, BigEndianWriter<Sink>& w) {
  w.put_u8(static_cast<std::uint8_t>(ValueType::kList));
  w.put_u32(static_cast<std::uint32_t>(list.size()));
  for (const auto& e : list) encode_value(e, w);
}

template <typename Sink>
void encode_value(const Value& v, BigEndianWriter<Sink>& w) {
  if (v.is_list()) return encode_value(v.as_list(), w);
  w.put_u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
    case ValueType::kList:
      break;
    case ValueType::kBool:
      w.put_u8(v.as_bool() ? 1 : 0);
      break;
    case ValueType::kInt:
      w.put_i64(v.as_int());
      break;
    case ValueType::kDouble:
      w.put_f64(v.as_double());
      break;
    case ValueType::kString:
      w.put_string(v.as_string());
      break;
    case ValueType::kBytes:
      w.put_bytes(v.as_bytes());
      break;
    case ValueType::kMap:
      w.put_u32(static_cast<std::uint32_t>(v.as_map().size()));
      for (const auto& [k, e] : v.as_map()) {
        w.put_string(k);
        encode_value(e, w);
      }
      break;
  }
}

template void encode_value(const Value&, BigEndianWriter<BufWriter>&);
template void encode_value(const Value&, BigEndianWriter<BlockStream>&);
template void encode_value(const ValueList&, BigEndianWriter<BufWriter>&);
template void encode_value(const ValueList&, BigEndianWriter<BlockStream>&);

Bytes encode_value(const Value& v) {
  BufWriter w;
  encode_value(v, w);
  return w.take();
}

Result<Value> decode_value(BufReader& r) { return decode_rec(r, 0); }

Status decode_value(BufReader& r, ValueList& out) {
  auto tag = r.u8();
  if (!tag.is_ok()) return tag.status();
  if (tag.value() != static_cast<std::uint8_t>(ValueType::kList)) {
    return protocol_error("expected a list value");
  }
  return decode_list(r, 0, out);
}

Result<Value> decode_value(ByteView b) {
  BufReader r(b);
  auto v = decode_rec(r, 0);
  if (!v.is_ok()) return v;
  if (!r.at_end()) return protocol_error("trailing bytes after value");
  return v;
}

}  // namespace hcm
