#include "soap/value_xml.hpp"

#include <charconv>
#include <iterator>

#include "common/base64.hpp"
#include "common/value_codec.hpp"
#include "common/strings.hpp"

namespace hcm::soap {

const char* xsi_type_for(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "xsd:anyType";
    case ValueType::kBool: return "xsd:boolean";
    case ValueType::kInt: return "xsd:long";
    case ValueType::kDouble: return "xsd:double";
    case ValueType::kString: return "xsd:string";
    case ValueType::kBytes: return "xsd:base64Binary";
    case ValueType::kList: return "SOAP-ENC:Array";
    case ValueType::kMap: return "xsd:struct";
  }
  return "xsd:anyType";
}

ValueType value_type_for_xsi(std::string_view xsi) {
  auto colon = xsi.find(':');
  auto local = colon == std::string_view::npos ? xsi : xsi.substr(colon + 1);
  if (local == "boolean") return ValueType::kBool;
  if (local == "int" || local == "long" || local == "short" ||
      local == "integer" || local == "byte") {
    return ValueType::kInt;
  }
  if (local == "double" || local == "float" || local == "decimal") {
    return ValueType::kDouble;
  }
  if (local == "string") return ValueType::kString;
  if (local == "base64Binary" || local == "base64") return ValueType::kBytes;
  if (local == "Array") return ValueType::kList;
  if (local == "struct" || local == "Struct") return ValueType::kMap;
  return ValueType::kNull;
}

namespace {

// Conservative XML NCName check for map keys. Keys that fail (metric
// names like "http.server#2.requests") are carried in a key attribute
// on an <entry> element instead of as the element name itself.
bool is_xml_name(const std::string& s) {
  if (s.empty()) return false;
  auto name_start = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c == '_';
  };
  if (!name_start(s[0])) return false;
  for (char c : s) {
    if (!name_start(c) && !(c >= '0' && c <= '9') && c != '-' && c != '.') {
      return false;
    }
  }
  return true;
}

}  // namespace

namespace {

// Shared with value_write below; `key` is the key="..." attribute of a
// map <entry>, written after the typing attributes.
void value_write_keyed(std::string_view name, const Value& v, xml::Writer& w,
                       const std::string* key) {
  w.start(name).attr("xsi:type", xsi_type_for(v.type()));
  if (v.type() == ValueType::kNull) w.attr("xsi:nil", "true");
  if (key != nullptr) w.attr("key", *key);
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w.text(v.as_bool() ? "true" : "false");
      break;
    case ValueType::kInt: {
      char buf[24];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v.as_int());
      w.text(std::string_view(buf, static_cast<std::size_t>(end - buf)));
      break;
    }
    case ValueType::kDouble: {
      char buf[64];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v.as_double(),
                                     std::chars_format::general, 17);
      w.text(std::string_view(buf, static_cast<std::size_t>(end - buf)));
      break;
    }
    case ValueType::kString:
      w.text(v.as_string());
      break;
    case ValueType::kBytes:
      w.text(base64_encode(v.as_bytes()));
      break;
    case ValueType::kList:
      for (const auto& item : v.as_list()) {
        value_write_keyed("item", item, w, nullptr);
      }
      break;
    case ValueType::kMap:
      for (const auto& [k, item] : v.as_map()) {
        if (is_xml_name(k)) {
          value_write_keyed(k, item, w, nullptr);
        } else {
          value_write_keyed("entry", item, w, &k);
        }
      }
      break;
  }
  w.end();
}

}  // namespace

void value_write(std::string_view name, const Value& v, xml::Writer& w) {
  value_write_keyed(name, v, w, nullptr);
}

Result<Value> value_from_pull(xml::PullParser& p, int depth) {
  DecodeStack stack;
  return value_from_pull(p, stack, depth);
}

Result<Value> value_from_pull(xml::PullParser& p, DecodeStack& stack,
                              int depth) {
  if (depth > kMaxValueDepth) return protocol_error("value nesting too deep");
  // Typing attributes must be captured before any event advances the
  // parser past the start tag.
  std::string scratch;
  bool is_nil = false;
  if (const auto* nil = p.find_attr_local("nil")) {
    auto v = xml::PullParser::decode(nil->raw_value, scratch);
    if (!v.is_ok()) return v.status();
    is_nil = v.value() == "true" || v.value() == "1";
  }
  ValueType type = ValueType::kNull;
  bool typed = false;
  if (const auto* xsi = p.find_attr_local("type")) {
    scratch.clear();
    auto v = xml::PullParser::decode(xsi->raw_value, scratch);
    if (!v.is_ok()) return v.status();
    type = value_type_for_xsi(v.value());
    typed = type != ValueType::kNull;
  }
  const bool scalar_typed =
      typed && type != ValueType::kList && type != ValueType::kMap;

  // Consume content up to the matching end tag: direct text runs
  // accumulate (whitespace-only runs are formatting noise, as in
  // PullParser::collect_text), child elements decode in order for
  // lists/maps and are skipped for scalars. This level's children are
  // stack[base, end); every return drops them.
  std::string text;
  const std::size_t base = stack.size();
  struct DropChildren {
    DecodeStack& stack;
    std::size_t base;
    ~DropChildren() {
      stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(base),
                  stack.end());
    }
  } drop_children{stack, base};
  while (true) {
    auto ev = p.next();
    if (!ev.is_ok()) return ev.status();
    using Event = xml::PullParser::Event;
    if (ev.value() == Event::kEnd) break;
    if (ev.value() == Event::kText) {
      scratch.clear();
      auto t = p.text(scratch);
      if (!t.is_ok()) return t.status();
      if (p.text_is_cdata() || !trim(t.value()).empty()) {
        text.append(t.value());
      }
      continue;
    }
    if (ev.value() == Event::kEof) {
      return protocol_error("unexpected end of document");
    }
    if (is_nil || scalar_typed) {
      if (auto s = p.skip_element(); !s.is_ok()) return s;
      continue;
    }
    // The child's slot is pushed before it decodes (its own children
    // stack above it), and indexed: the stack may grow meanwhile.
    const std::size_t slot = stack.size();
    auto& key = stack.emplace_back(p.local_name(), Value()).first;
    if (key == "entry") {
      if (const auto* k = p.find_attr("key")) {
        scratch.clear();
        auto kv = xml::PullParser::decode(k->raw_value, scratch);
        if (!kv.is_ok()) return kv.status();
        key.assign(kv.value());
      }
    }
    auto item = value_from_pull(p, stack, depth + 1);
    if (!item.is_ok()) return item.status();
    stack[slot].second = std::move(item).take();
  }
  if (is_nil) return Value();
  const auto kids_begin = stack.begin() + static_cast<std::ptrdiff_t>(base);
  const std::size_t n_kids = stack.size() - base;
  if (!typed) {
    // Untyped: infer structure.
    if (n_kids != 0) {
      type = ValueType::kMap;
    } else if (!text.empty()) {
      type = ValueType::kString;
    } else {
      return Value();
    }
  }
  switch (type) {
    case ValueType::kBool: {
      auto t = trim(text);
      if (t == "true" || t == "1") return Value(true);
      if (t == "false" || t == "0") return Value(false);
      return protocol_error("bad boolean: " + std::string(t));
    }
    case ValueType::kInt: {
      auto t = trim(text);
      std::int64_t out = 0;
      auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
      if (ec != std::errc{} || ptr != t.data() + t.size()) {
        return protocol_error("bad integer: " + std::string(t));
      }
      return Value(out);
    }
    case ValueType::kDouble: {
      auto t = trim(text);
      double out = 0;
      auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
      if (ec != std::errc{} || ptr != t.data() + t.size()) {
        return protocol_error("bad double: " + std::string(t));
      }
      return Value(out);
    }
    case ValueType::kString:
      return Value(std::move(text));
    case ValueType::kBytes: {
      auto bytes = base64_decode(text);
      if (!bytes.is_ok()) return bytes.status();
      return Value(std::move(bytes).take());
    }
    case ValueType::kList: {
      ValueList list;
      list.reserve(n_kids);
      for (auto it = kids_begin; it != stack.end(); ++it) {
        list.push_back(std::move(it->second));
      }
      return Value(std::move(list));
    }
    case ValueType::kMap: {
      std::vector<ValueMap::value_type> entries(
          std::make_move_iterator(kids_begin),
          std::make_move_iterator(stack.end()));
      // The first of a repeated key wins.
      return Value(ValueMap::from_unsorted(std::move(entries),
                                           ValueMap::Duplicates::kKeepFirst));
    }
    case ValueType::kNull:
      return Value();
  }
  return protocol_error("unhandled value type");
}

}  // namespace hcm::soap
