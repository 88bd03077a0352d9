#include "xml/xml.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>

#include "common/strings.hpp"
#include "common/value_codec.hpp"

namespace hcm::xml {

namespace {

// Byte-class table for the hot scanning loops. std::isalnum/isspace are
// locale calls and string_view::find_first_of is a nested per-char loop
// in libstdc++ — both show up directly in envelope encode/decode cost,
// so the scanners below use one table lookup per byte instead.
constexpr std::uint8_t kName = 1;     // XML name characters
constexpr std::uint8_t kSpace = 2;    // XML whitespace
constexpr std::uint8_t kTextEsc = 4;  // needs escaping in text: & < >
constexpr std::uint8_t kAttrEsc = 8;  // needs escaping in attrs: & < > " '

constexpr auto make_char_class() {
  std::array<std::uint8_t, 256> t{};
  for (unsigned c = '0'; c <= '9'; ++c) t[c] |= kName;
  for (unsigned c = 'a'; c <= 'z'; ++c) t[c] |= kName;
  for (unsigned c = 'A'; c <= 'Z'; ++c) t[c] |= kName;
  t[':'] |= kName;
  t['_'] |= kName;
  t['-'] |= kName;
  t['.'] |= kName;
  t[' '] |= kSpace;
  t['\t'] |= kSpace;
  t['\n'] |= kSpace;
  t['\r'] |= kSpace;
  t['\f'] |= kSpace;
  t['\v'] |= kSpace;
  t['&'] |= kTextEsc | kAttrEsc;
  t['<'] |= kTextEsc | kAttrEsc;
  t['>'] |= kTextEsc | kAttrEsc;
  t['"'] |= kAttrEsc;
  t['\''] |= kAttrEsc;
  return t;
}

constexpr std::array<std::uint8_t, 256> kCharClass = make_char_class();

[[nodiscard]] inline bool has_class(char c, std::uint8_t mask) {
  return (kCharClass[static_cast<unsigned char>(c)] & mask) != 0;
}

// First position in s at or after `start` whose class intersects
// `mask`, or s.size().
[[nodiscard]] inline std::size_t scan_for(std::string_view s,
                                          std::size_t start,
                                          std::uint8_t mask) {
  std::size_t i = start;
  while (i < s.size() && !has_class(s[i], mask)) ++i;
  return i;
}

}  // namespace

void append_escaped_text(std::string& out, std::string_view s) {
  std::size_t start = 0;
  while (true) {
    std::size_t i = scan_for(s, start, kTextEsc);
    if (i == s.size()) {
      out.append(s.substr(start));
      return;
    }
    out.append(s.substr(start, i - start));
    switch (s[i]) {
      case '&': out.append("&amp;"); break;
      case '<': out.append("&lt;"); break;
      default: out.append("&gt;"); break;
    }
    start = i + 1;
  }
}

void append_escaped_attr(std::string& out, std::string_view s) {
  std::size_t start = 0;
  while (true) {
    std::size_t i = scan_for(s, start, kAttrEsc);
    if (i == s.size()) {
      out.append(s.substr(start));
      return;
    }
    out.append(s.substr(start, i - start));
    switch (s[i]) {
      case '&': out.append("&amp;"); break;
      case '<': out.append("&lt;"); break;
      case '>': out.append("&gt;"); break;
      case '"': out.append("&quot;"); break;
      default: out.append("&apos;"); break;
    }
    start = i + 1;
  }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

void Writer::push_open(Open o) {
  if (depth_ < kInlineDepth) {
    stack_[depth_] = o;
  } else {
    deep_.push_back(o);
  }
  ++depth_;
}

Writer::Open Writer::pop_open() {
  --depth_;
  if (depth_ < kInlineDepth) return stack_[depth_];
  const Open o = deep_.back();
  deep_.pop_back();
  return o;
}

void Writer::close_start_tag() {
  if (in_start_tag_) {
    out_ += '>';
    in_start_tag_ = false;
  }
}

Writer& Writer::start(std::string_view name) { return start({}, name); }

Writer& Writer::start(std::string_view prefix, std::string_view name,
                      std::string_view suffix) {
  close_start_tag();
  out_ += '<';
  const auto off = static_cast<std::uint32_t>(out_.size());
  out_.append(prefix);
  out_.append(name);
  out_.append(suffix);
  push_open({off, static_cast<std::uint32_t>(out_.size() - off)});
  in_start_tag_ = true;
  return *this;
}

Writer& Writer::attr(std::string_view name, std::string_view value) {
  out_ += ' ';
  out_.append(name);
  out_.append("=\"");
  append_escaped_attr(out_, value);
  out_ += '"';
  return *this;
}

Writer& Writer::text(std::string_view s) {
  close_start_tag();
  append_escaped_text(out_, s);
  return *this;
}

Writer& Writer::end() {
  const Open open = pop_open();
  if (in_start_tag_) {
    out_.append("/>");
    in_start_tag_ = false;
    return *this;
  }
  // Reserve first: the close-tag name is copied out of the buffer
  // itself, so the source must not move mid-append.
  out_.reserve(out_.size() + open.name_len + 3);
  out_.append("</");
  out_.append(out_.data() + open.name_off, open.name_len);
  out_ += '>';
  return *this;
}

Writer& Writer::leaf(std::string_view name, std::string_view text_content) {
  return start(name).text(text_content).end();
}

Writer& Writer::prolog() {
  out_.append("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
  return *this;
}

// ---------------------------------------------------------------------
// PullParser
// ---------------------------------------------------------------------

namespace {

[[nodiscard]] bool is_name_char(char c) { return has_class(c, kName); }

[[nodiscard]] std::string_view local_of(std::string_view name) {
  auto colon = name.find(':');
  return colon == std::string_view::npos ? name : name.substr(colon + 1);
}

// Decodes one entity reference (`ent` excludes '&' and ';') into `out`.
Status decode_one_entity(std::string_view ent, std::string& out) {
  if (ent == "amp") {
    out += '&';
  } else if (ent == "lt") {
    out += '<';
  } else if (ent == "gt") {
    out += '>';
  } else if (ent == "quot") {
    out += '"';
  } else if (ent == "apos") {
    out += '\'';
  } else if (!ent.empty() && ent[0] == '#') {
    long code = 0;
    bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
    for (std::size_t j = hex ? 2 : 1; j < ent.size(); ++j) {
      char c = ent[j];
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (hex && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else if (hex && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
      else return protocol_error("bad character reference");
      code = code * (hex ? 16 : 10) + digit;
      if (code > 0x10FFFF) return protocol_error("bad character reference");
    }
    // Encode as UTF-8.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  } else {
    return protocol_error("unknown entity &" + std::string(ent) + ";");
  }
  return Status::ok();
}

// Checks that every entity reference in `raw` decodes, without
// decoding the run: one decoded reference is at most 4 bytes, so the
// scratch never leaves its inline buffer.
Status check_entities(std::string_view raw) {
  std::string one;
  for (auto amp = raw.find('&'); amp != std::string_view::npos;
       amp = raw.find('&', amp + 1)) {
    const auto semi = raw.find(';', amp);
    if (semi == std::string_view::npos) {
      return protocol_error("unterminated entity");
    }
    one.clear();
    if (auto s = decode_one_entity(raw.substr(amp + 1, semi - amp - 1), one);
        !s.is_ok()) {
      return s;
    }
    amp = semi;
  }
  return Status::ok();
}

Status duplicate_attribute(std::string_view name) {
  return protocol_error("duplicate attribute " + std::string(name));
}

// Sorting keeps a hostile tag with many attributes from costing a
// quadratic scan.
Status check_unique_spilled(
    const InlineVec<PullParser::Attr, PullParser::kInlineAttrs>& attrs) {
  std::vector<std::string_view> names;
  names.reserve(attrs.size());
  for (const auto& a : attrs) names.push_back(a.name);
  std::sort(names.begin(), names.end());
  const auto dup = std::adjacent_find(names.begin(), names.end());
  return dup == names.end() ? Status::ok() : duplicate_attribute(*dup);
}

}  // namespace

std::string_view PullParser::local_name() const { return local_of(name_); }

const PullParser::Attr* PullParser::find_attr(std::string_view name) const {
  for (const auto& a : attrs_) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

const PullParser::Attr* PullParser::find_attr_local(
    std::string_view local) const {
  for (const auto& a : attrs_) {
    if (local_of(a.name) == local) return &a;
  }
  return nullptr;
}

Result<std::string_view> PullParser::decode(std::string_view raw,
                                            std::string& scratch) {
  std::size_t amp = raw.find('&');
  if (amp == std::string_view::npos) return raw;  // fast path: nothing encoded
  const std::size_t scratch0 = scratch.size();
  std::size_t i = 0;
  while (true) {
    scratch.append(raw.data() + i, amp - i);
    auto semi = raw.find(';', amp);
    if (semi == std::string_view::npos) {
      return protocol_error("unterminated entity");
    }
    if (auto s = decode_one_entity(raw.substr(amp + 1, semi - amp - 1), scratch);
        !s.is_ok()) {
      return s;
    }
    i = semi + 1;
    amp = raw.find('&', i);
    if (amp == std::string_view::npos) {
      scratch.append(raw.data() + i, raw.size() - i);
      return std::string_view(scratch).substr(scratch0);
    }
  }
}

void PullParser::skip_ws() {
  while (!eof() && has_class(peek(), kSpace)) ++pos_;
}

bool PullParser::skip_comment() {
  if (!lookahead("<!--")) return false;
  auto end = in_.find("-->", pos_ + 4);
  pos_ = end == std::string_view::npos ? in_.size() : end + 3;
  return true;
}

void PullParser::skip_prolog() {
  while (true) {
    skip_ws();
    if (lookahead("<?")) {
      auto end = in_.find("?>", pos_ + 2);
      pos_ = end == std::string_view::npos ? in_.size() : end + 2;
    } else if (lookahead("<!--")) {
      skip_comment();
    } else if (lookahead("<!DOCTYPE")) {
      auto end = in_.find('>', pos_);
      pos_ = end == std::string_view::npos ? in_.size() : end + 1;
    } else {
      return;
    }
  }
}

Result<std::string_view> PullParser::read_name() {
  std::size_t start = pos_;
  while (!eof() && is_name_char(peek())) ++pos_;
  if (pos_ == start) return protocol_error("expected XML name");
  return in_.substr(start, pos_ - start);
}

Result<PullParser::Event> PullParser::read_start_tag() {
  if (open_.size() >= static_cast<std::size_t>(kMaxDocumentDepth)) {
    return protocol_error("document nesting too deep");
  }
  ++pos_;  // past '<'
  auto name = read_name();
  if (!name.is_ok()) return name.status();
  name_ = name.value();
  attrs_.clear();
  while (true) {
    skip_ws();
    if (eof()) return protocol_error("unterminated start tag");
    const bool self_closing = lookahead("/>");
    if (self_closing || peek() == '>') {
      if (attrs_.size() > kInlineAttrs) {
        if (auto s = check_unique_spilled(attrs_); !s.is_ok()) return s;
      }
      if (self_closing) {
        pos_ += 2;
        pending_end_ = true;  // not pushed on open_: kEnd follows directly
      } else {
        ++pos_;
        open_.push_back(name_);
      }
      return Event::kStart;
    }
    auto attr_name = read_name();
    if (!attr_name.is_ok()) return attr_name.status();
    // XML 1.0 §3.1 (Unique Att Spec), so every reader — tree, SOAP,
    // UPnP — sees one value per name. Within the inline capacity a scan
    // of the attributes read so far is the cheapest check; past it, the
    // whole set is checked once when the tag closes.
    if (attrs_.size() < kInlineAttrs &&
        find_attr(attr_name.value()) != nullptr) {
      return duplicate_attribute(attr_name.value());
    }
    skip_ws();
    if (eof() || peek() != '=') return protocol_error("expected '='");
    ++pos_;
    skip_ws();
    if (eof() || (peek() != '"' && peek() != '\'')) {
      return protocol_error("expected quoted attribute value");
    }
    char quote = peek();
    ++pos_;
    auto end = in_.find(quote, pos_);
    if (end == std::string_view::npos) {
      return protocol_error("unterminated attribute value");
    }
    const auto value = in_.substr(pos_, end - pos_);
    if (auto s = check_entities(value); !s.is_ok()) return s;
    attrs_.push_back({attr_name.value(), value});
    pos_ = end + 1;
  }
}

Result<PullParser::Event> PullParser::next() {
  if (pending_end_) {
    pending_end_ = false;
    if (open_.empty()) done_ = true;
    return Event::kEnd;
  }
  if (!started_) {
    skip_prolog();
    if (eof() || peek() != '<') return protocol_error("expected '<'");
    started_ = true;
    return read_start_tag();
  }
  if (done_) {
    // Only whitespace and comments may follow the root element.
    while (true) {
      skip_ws();
      if (!skip_comment()) break;
    }
    if (!eof()) return protocol_error("trailing content after root element");
    return Event::kEof;
  }
  while (true) {
    if (eof()) {
      return protocol_error("unterminated element " + std::string(open_.back()));
    }
    if (lookahead("</")) {
      pos_ += 2;
      auto close = read_name();
      if (!close.is_ok()) return close.status();
      if (close.value() != open_.back()) {
        return protocol_error("mismatched close tag: " +
                              std::string(close.value()) + " vs " +
                              std::string(open_.back()));
      }
      skip_ws();
      if (eof() || peek() != '>') return protocol_error("expected '>'");
      ++pos_;
      name_ = close.value();
      open_.pop_back();
      if (open_.empty()) done_ = true;
      return Event::kEnd;
    }
    if (lookahead("<!--")) {
      skip_comment();
      continue;
    }
    if (lookahead("<![CDATA[")) {
      auto end = in_.find("]]>", pos_ + 9);
      if (end == std::string_view::npos) {
        return protocol_error("unterminated CDATA");
      }
      text_ = in_.substr(pos_ + 9, end - pos_ - 9);
      cdata_ = true;
      pos_ = end + 3;
      return Event::kText;
    }
    if (peek() == '<') return read_start_tag();
    // Text run up to the next '<'.
    auto end = in_.find('<', pos_);
    if (end == std::string_view::npos) {
      return protocol_error("unterminated element content");
    }
    text_ = in_.substr(pos_, end - pos_);
    if (auto s = check_entities(text_); !s.is_ok()) return s;
    cdata_ = false;
    pos_ = end;
    return Event::kText;
  }
}

Result<std::string_view> PullParser::text(std::string& scratch) const {
  if (cdata_) return text_;  // CDATA is never entity-decoded
  return decode(text_, scratch);
}

bool PullParser::decoded_attr(std::string_view name, std::string& out) const {
  const Attr* a = find_attr(name);
  if (a == nullptr) return false;
  // read_start_tag checked every reference, so decoding cannot fail.
  std::string scratch;
  out.assign(decode(a->raw_value, scratch).value());
  return true;
}

Status PullParser::skip_element() {
  int depth = 1;
  while (depth > 0) {
    auto ev = next();
    if (!ev.is_ok()) return ev.status();
    if (ev.value() == Event::kStart) ++depth;
    else if (ev.value() == Event::kEnd) --depth;
    else if (ev.value() == Event::kEof) {
      return protocol_error("unexpected end of document");
    }
  }
  return Status::ok();
}

Status PullParser::collect_text(std::string& out) {
  out.clear();
  std::string scratch;
  while (true) {
    auto ev = next();
    if (!ev.is_ok()) return ev.status();
    switch (ev.value()) {
      case Event::kStart:
        if (auto s = skip_element(); !s.is_ok()) return s;
        break;
      case Event::kText: {
        scratch.clear();
        auto t = text(scratch);
        if (!t.is_ok()) return t.status();
        // Whitespace-only runs are formatting noise; CDATA is content.
        if (cdata_ || !trim(t.value()).empty()) out.append(t.value());
        break;
      }
      case Event::kEnd:
        return Status::ok();
      case Event::kEof:
        return protocol_error("unexpected end of document");
    }
  }
}

}  // namespace hcm::xml
