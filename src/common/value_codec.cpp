#include "common/value_codec.hpp"

#include <algorithm>

#include "common/block_stream.hpp"

namespace hcm {

namespace {

// Largest up-front reservation of a decoded list or map (see
// decode_list).
constexpr std::size_t kMaxListReserve = 1024;

Status decode_into(BufReader& r, Value& out, int depth);

// A length-prefixed run of the buffer, borrowed.
Result<std::string_view> prefixed(BufReader& r) {
  auto len = r.u32();
  if (!len.is_ok()) return len.status();
  return r.view(len.value());
}

// `s` = `text`. Storage too small for it is replaced by storage of the
// exact size: assign would round it up to twice the old capacity.
void assign_exact(std::string& s, std::string_view text) {
  if (text.size() > s.capacity()) {
    s = std::string(text);
  } else {
    s.assign(text);
  }
}

// Body of a list at `depth` (its tag already read) into `out`: the
// elements decode into the ones `out` holds, by index, and the rest are
// truncated.
Status decode_list(BufReader& r, int depth, ValueList& out) {
  auto n = r.u32();
  if (!n.is_ok()) return n.status();
  if (n.value() > r.remaining()) {
    return protocol_error("list length exceeds buffer");
  }
  // The count is checked against the bytes left, not the nesting: a
  // frame of nested lists each claiming the rest of the buffer would
  // reserve that much per level. Reserve at most kMaxListReserve before
  // any element has been decoded and let the list grow past it.
  out.reserve(std::min<std::size_t>(n.value(), kMaxListReserve));
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    if (i == out.size()) out.emplace_back();
    if (auto s = decode_into(r, out[i], depth + 1); !s.is_ok()) return s;
  }
  out.resize(n.value());
  return Status::ok();
}

// Decodes one value at `depth` into `out`, reusing the storage `out`
// holds, as soap::value_from_pull does: a string or byte string is
// assigned into its own, and a list's or map's children decode into the
// ones it has. A recycled tree of the same shape decodes without
// allocating. On error `out` holds some valid value.
Status decode_into(BufReader& r, Value& out, int depth) {
  if (depth > kMaxValueDepth) return protocol_error("value nesting too deep");
  auto tag = r.u8();
  if (!tag.is_ok()) return tag.status();
  switch (static_cast<ValueType>(tag.value())) {
    case ValueType::kNull:
      out = Value();
      return Status::ok();
    case ValueType::kBool: {
      auto b = r.u8();
      if (!b.is_ok()) return b.status();
      out = b.value() != 0;
      return Status::ok();
    }
    case ValueType::kInt: {
      auto i = r.i64();
      if (!i.is_ok()) return i.status();
      out = i.value();
      return Status::ok();
    }
    case ValueType::kDouble: {
      auto d = r.f64();
      if (!d.is_ok()) return d.status();
      out = d.value();
      return Status::ok();
    }
    case ValueType::kString: {
      auto v = prefixed(r);
      if (!v.is_ok()) return v.status();
      assign_exact(out.slot<std::string>(), v.value());
      return Status::ok();
    }
    case ValueType::kBytes: {
      auto v = prefixed(r);
      if (!v.is_ok()) return v.status();
      out.slot<Bytes>().assign(v.value().begin(), v.value().end());
      return Status::ok();
    }
    case ValueType::kList:
      return decode_list(r, depth, out.slot<ValueList>());
    case ValueType::kMap: {
      auto n = r.u32();
      if (!n.is_ok()) return n.status();
      if (n.value() > r.remaining()) {
        return protocol_error("map length exceeds buffer");
      }
      // Entries go in wire order and are sorted once at the end; the
      // first of a repeated key wins, as it would by emplace.
      ValueMap& map = out.slot<ValueMap>();
      auto& entries = map.unsorted_entries();
      entries.reserve(std::min<std::size_t>(n.value(), kMaxListReserve));
      for (std::uint32_t i = 0; i < n.value(); ++i) {
        if (i == entries.size()) entries.emplace_back();
        auto& [key, value] = entries[i];
        auto k = prefixed(r);
        if (!k.is_ok()) return k.status();
        assign_exact(key, k.value());
        if (auto s = decode_into(r, value, depth + 1); !s.is_ok()) return s;
      }
      entries.resize(n.value());
      map.normalize(ValueMap::Duplicates::kKeepFirst);
      return Status::ok();
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

Result<Value> decode_value(BufReader& r) {
  Value out;
  if (auto s = decode_into(r, out, 0); !s.is_ok()) return s;
  return out;
}

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
  auto v = decode_value(r);
  if (!v.is_ok()) return v;
  if (!r.at_end()) return protocol_error("trailing bytes after value");
  return v;
}

}  // namespace hcm
