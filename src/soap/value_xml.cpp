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
  Value out;
  if (auto s = value_from_pull(p, out, nullptr, depth); !s.is_ok()) return s;
  return out;
}

namespace {

// Appends the parser's current text run to `text`, unless it is a
// whitespace-only run (formatting noise, as in PullParser::collect_text).
// Entity references decode straight into `text`.
Status append_text(const xml::PullParser& p, std::string& text) {
  const std::size_t before = text.size();
  auto t = p.text(text);
  if (!t.is_ok()) return t.status();
  if (!p.text_is_cdata() && trim(t.value()).empty()) {
    text.resize(before);
  } else if (text.size() == before) {  // nothing was decoded into `text`
    text.append(t.value());
  }
  return Status::ok();
}

// The number of child elements of the element the parser just opened,
// read ahead by a copy of the parser. Malformed input counts what it
// reaches; the decode itself reports the error.
std::size_t count_children(const xml::PullParser& p) {
  xml::PullParser ahead = p;
  std::size_t n = 0;
  while (true) {
    auto ev = ahead.next();
    if (!ev.is_ok() || ev.value() == xml::PullParser::Event::kEnd ||
        ev.value() == xml::PullParser::Event::kEof) {
      return n;
    }
    if (ev.value() != xml::PullParser::Event::kStart) continue;
    ++n;
    if (!ahead.skip_element().is_ok()) return n;
  }
}

// A container without storage of its own (a fresh or moved-from tree:
// a client's result, a first call) reserves its children's count, so it
// allocates once instead of growing; a recycled one keeps what it has.
// Only the outermost such container on a path reads ahead (returns
// true, and `read_ahead` is false below it): the subtrees read ahead
// are disjoint, so a decode scans its input at most twice whatever the
// nesting. The fresh containers inside one grow as they fill.
template <typename Vec>
bool reserve_children(const xml::PullParser& p, Vec& children,
                      bool read_ahead) {
  if (!read_ahead || children.capacity() != 0) return false;
  children.reserve(count_children(p));
  return true;
}

Status decode_value(xml::PullParser& p, Value& out, ValueList* spare,
                    int depth, bool read_ahead) {
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
  // accumulate, child elements decode in order for lists/maps and are
  // skipped for scalars. Everything lands in the storage `out` already
  // holds: a string's text in its own string, a list's or map's
  // children into its existing elements by index (the extra ones are
  // truncated at the end tag).
  std::string local_text;
  std::string& text = typed && type == ValueType::kString && !is_nil
                          ? out.slot<std::string>()
                          : local_text;
  text.clear();
  if (!is_nil && type == ValueType::kList) {
    if (reserve_children(p, out.slot<ValueList>(), read_ahead)) {
      read_ahead = false;
    }
  } else if (!is_nil && type == ValueType::kMap) {
    if (reserve_children(p, out.slot<ValueMap>().unsorted_entries(),
                         read_ahead)) {
      read_ahead = false;
    }
  }
  std::size_t n_kids = 0;
  while (true) {
    auto ev = p.next();
    if (!ev.is_ok()) return ev.status();
    using Event = xml::PullParser::Event;
    if (ev.value() == Event::kEnd) break;
    if (ev.value() == Event::kText) {
      if (auto s = append_text(p, text); !s.is_ok()) return s;
      continue;
    }
    if (ev.value() == Event::kEof) {
      return protocol_error("unexpected end of document");
    }
    if (is_nil || scalar_typed) {
      if (auto s = p.skip_element(); !s.is_ok()) return s;
      continue;
    }
    Value* child = nullptr;
    if (type == ValueType::kList) {
      ValueList& list = out.slot<ValueList>();
      if (n_kids == list.size()) {  // longer than the recycled list
        if (spare != nullptr && !spare->empty()) {
          list.push_back(std::move(spare->back()));
          spare->pop_back();
        } else {
          list.emplace_back();
        }
      }
      child = &list[n_kids];
    } else {  // a map, typed or inferred from its first child
      auto& entries = out.slot<ValueMap>().unsorted_entries();
      if (n_kids == entries.size()) entries.emplace_back();
      auto& [key, value] = entries[n_kids];
      key.assign(p.local_name());
      if (key == "entry") {
        if (const auto* k = p.find_attr("key")) {
          scratch.clear();
          auto kv = xml::PullParser::decode(k->raw_value, scratch);
          if (!kv.is_ok()) return kv.status();
          key.assign(kv.value());
        }
      }
      child = &value;
    }
    ++n_kids;
    if (auto s = decode_value(p, *child, spare, depth + 1, read_ahead);
        !s.is_ok()) {
      return s;
    }
  }
  if (is_nil) {
    out = Value();
    return Status::ok();
  }
  if (!typed) {
    // Untyped: infer structure.
    if (n_kids != 0) {
      type = ValueType::kMap;
    } else if (!text.empty()) {
      out = std::move(text);
      return Status::ok();
    } else {
      out = Value();
      return Status::ok();
    }
  }
  switch (type) {
    case ValueType::kBool: {
      auto t = trim(text);
      if (t == "true" || t == "1") {
        out = true;
      } else if (t == "false" || t == "0") {
        out = false;
      } else {
        return protocol_error("bad boolean: " + std::string(t));
      }
      return Status::ok();
    }
    case ValueType::kInt: {
      auto t = trim(text);
      std::int64_t v = 0;
      auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
      if (ec != std::errc{} || ptr != t.data() + t.size()) {
        return protocol_error("bad integer: " + std::string(t));
      }
      out = v;
      return Status::ok();
    }
    case ValueType::kDouble: {
      auto t = trim(text);
      double v = 0;
      auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
      if (ec != std::errc{} || ptr != t.data() + t.size()) {
        return protocol_error("bad double: " + std::string(t));
      }
      out = v;
      return Status::ok();
    }
    case ValueType::kString:
      return Status::ok();  // decoded in place
    case ValueType::kBytes: {
      auto bytes = base64_decode(text);
      if (!bytes.is_ok()) return bytes.status();
      out = std::move(bytes).take();
      return Status::ok();
    }
    case ValueType::kList: {
      ValueList& list = out.slot<ValueList>();
      if (spare != nullptr) {
        for (std::size_t i = n_kids; i < list.size(); ++i) {
          spare->push_back(std::move(list[i]));
        }
      }
      list.resize(n_kids);
      return Status::ok();
    }
    case ValueType::kMap: {
      ValueMap& map = out.slot<ValueMap>();
      map.unsorted_entries().resize(n_kids);
      // The first of a repeated key wins.
      map.normalize(ValueMap::Duplicates::kKeepFirst);
      return Status::ok();
    }
    case ValueType::kNull:
      out = Value();
      return Status::ok();
  }
  return protocol_error("unhandled value type");
}

}  // namespace

Status value_from_pull(xml::PullParser& p, Value& out, ValueList* spare,
                       int depth) {
  return decode_value(p, out, spare, depth, /*read_ahead=*/true);
}

}  // namespace hcm::soap
