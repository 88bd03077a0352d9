// Minimal XML 1.0 layer — enough for SOAP 1.1 envelopes, WSDL
// documents, the UDDI-like registry and UPnP device descriptions.
// Supports elements, attributes, text, comments (skipped), CDATA,
// numeric and the five predefined entities.
//
// One tokenizer, one writer:
//   - PullParser is the only reader: names and text stay string_views
//     into the retained input, and every consumer (SOAP envelopes,
//     WSDL, UPnP descriptions and NOTIFY bodies) walks its events;
//   - Writer is the only renderer: it streams into a caller-provided
//     reusable buffer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace hcm::xml {

// Escapes text content (& < >) and attribute values (also " '),
// appending to `out`. Runs without special characters are copied in
// one shot instead of byte-by-byte.
void append_escaped_text(std::string& out, std::string_view s);
void append_escaped_attr(std::string& out, std::string_view s);

// Streaming serializer: renders compact XML (no added whitespace,
// empty elements self-close) into a caller-provided buffer. Close-tag
// names are remembered as offsets into the output buffer itself, so a
// writer performs no per-element allocations.
class Writer {
 public:
  // Appends to `out`; the caller clears/reuses the buffer between
  // messages. The buffer must outlive the writer.
  explicit Writer(std::string& out) : out_(out) {}

  Writer& start(std::string_view name);
  // The element named prefix + name + suffix, written in place (a
  // qualified or derived name needs no concatenated temporary).
  Writer& start(std::string_view prefix, std::string_view name,
                std::string_view suffix = {});
  // Valid only between start() and the first content/end() call.
  Writer& attr(std::string_view name, std::string_view value);
  Writer& text(std::string_view s);      // escaped text content
  Writer& end();                         // </name>, or /> when empty
  // Convenience: <name>text</name>.
  Writer& leaf(std::string_view name, std::string_view text_content);
  // <?xml version="1.0" encoding="UTF-8"?>
  Writer& prolog();

 private:
  struct Open {
    std::uint32_t name_off;
    std::uint32_t name_len;
  };

  void close_start_tag();
  void push_open(Open o);
  [[nodiscard]] Open pop_open();

  std::string& out_;
  // Close-tag names are offsets into the output itself; the open stack
  // lives inline in the writer (SOAP/WSDL/UPnP nesting is shallow) with
  // a heap spill only past kInlineDepth.
  static constexpr int kInlineDepth = 24;
  Open stack_[kInlineDepth];
  std::vector<Open> deep_;
  int depth_ = 0;
  bool in_start_tag_ = false;
};

// Fixed inline storage with a heap spill past N — the pull parser's
// attribute and open-element stacks live in the parser object itself,
// so constructing a parser performs no allocations (SOAP envelopes
// never exceed the inline capacities). Element types must be trivially
// copyable (views). Once spilled, storage stays on the heap until
// clear().
template <typename T, std::size_t N>
class InlineVec {
 public:
  void clear() {
    n_ = 0;
    spilled_ = false;
    spill_.clear();
  }
  void push_back(T v) {
    if (!spilled_ && n_ < N) {
      buf_[n_++] = v;
      return;
    }
    if (!spilled_) {
      spill_.assign(buf_, buf_ + n_);
      spilled_ = true;
    }
    spill_.push_back(v);
  }
  void pop_back() {
    if (spilled_) {
      spill_.pop_back();
    } else {
      --n_;
    }
  }
  [[nodiscard]] std::size_t size() const {
    return spilled_ ? spill_.size() : n_;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return spilled_ ? spill_[i] : buf_[i];
  }
  [[nodiscard]] const T& back() const { return (*this)[size() - 1]; }
  [[nodiscard]] const T* begin() const {
    return spilled_ ? spill_.data() : buf_;
  }
  [[nodiscard]] const T* end() const { return begin() + size(); }

 private:
  T buf_[N];
  std::size_t n_ = 0;
  bool spilled_ = false;
  std::vector<T> spill_;
};

// Zero-copy pull parser: tokenizes the input into start/end/text events
// whose names and raw values are string_views into the input buffer,
// which the caller keeps alive for the parser's lifetime. Leading
// <?xml?>, <!DOCTYPE> and comments are skipped; a self-closing element
// produces kStart immediately followed by kEnd. The tokenizer itself
// rejects what a full decode would, whatever a reader skips: entity
// references that do not decode (in attribute values and text), and
// elements nested deeper than kMaxDocumentDepth (the root is depth 1),
// so the open-element stack stays bounded.
class PullParser {
 public:
  enum class Event { kStart, kEnd, kText, kEof };

  struct Attr {
    std::string_view name;
    std::string_view raw_value;  // still entity-encoded
  };

  // Start tags with more attributes than this spill to the heap.
  static constexpr std::size_t kInlineAttrs = 8;

  explicit PullParser(std::string_view in) : in_(in) {}

  // Advances to the next event.
  [[nodiscard]] Result<Event> next();

  // kStart/kEnd: qualified and local tag name.
  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] std::string_view local_name() const;
  // kStart only: attributes with raw (still-encoded) values.
  [[nodiscard]] const InlineVec<Attr, kInlineAttrs>& attrs() const {
    return attrs_;
  }
  // The attribute with this exact / local name, or null when absent.
  [[nodiscard]] const Attr* find_attr(std::string_view name) const;
  [[nodiscard]] const Attr* find_attr_local(std::string_view local) const;

  // kText: whether the run was CDATA, which is already unwrapped and is
  // never entity-decoded.
  [[nodiscard]] bool text_is_cdata() const { return cdata_; }
  // Decoded text of the current run. Points into the input when no
  // decoding is needed; otherwise `scratch` backs it.
  [[nodiscard]] Result<std::string_view> text(std::string& scratch) const;

  // kStart: assigns the entity-decoded value of the attribute with this
  // exact name to `out`. False, with `out` untouched, when absent.
  bool decoded_attr(std::string_view name, std::string& out) const;

  // Walks the direct children of the current element, passing over
  // text, until its end tag has been consumed. `on_child()` runs at
  // each child's start tag; it returns a Status and must consume through
  // the child's end tag (skip_element, collect_text or a nested walk).
  // Called before the first event, it visits the root and then requires
  // the end of input.
  template <typename OnChild>
  [[nodiscard]] Status for_each_child(OnChild&& on_child) {
    while (true) {
      auto ev = next();
      if (!ev.is_ok()) return ev.status();
      if (ev.value() == Event::kEnd || ev.value() == Event::kEof) {
        return Status::ok();
      }
      if (ev.value() != Event::kStart) continue;
      if (auto s = on_child(); !s.is_ok()) return s;
    }
  }

  // Consumes events until the end tag matching the most recent kStart
  // has been consumed. Call right after a kStart event.
  [[nodiscard]] Status skip_element();

  // Call right after a kStart event: consumes through the matching end
  // tag and replaces `out` with the element's direct text. Text runs
  // are concatenated untrimmed, whitespace-only runs are dropped, CDATA
  // is kept verbatim and nested elements are skipped.
  [[nodiscard]] Status collect_text(std::string& out);

  // Decodes entity references. Returns `raw` itself when it contains no
  // '&' (the fast path); otherwise appends the decoded form to scratch
  // and returns a view of what was appended.
  [[nodiscard]] static Result<std::string_view> decode(std::string_view raw,
                                                       std::string& scratch);

 private:
  [[nodiscard]] bool eof() const { return pos_ >= in_.size(); }
  [[nodiscard]] char peek() const { return in_[pos_]; }
  [[nodiscard]] bool lookahead(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  void skip_ws();
  bool skip_comment();
  void skip_prolog();
  [[nodiscard]] Result<std::string_view> read_name();
  [[nodiscard]] Result<Event> read_start_tag();

  std::string_view in_;
  std::size_t pos_ = 0;
  bool started_ = false;     // root element seen
  bool pending_end_ = false; // self-closing: deliver kEnd next
  bool done_ = false;        // root closed; only trailing noise allowed
  std::string_view name_;
  std::string_view text_;
  bool cdata_ = false;
  InlineVec<Attr, kInlineAttrs> attrs_;
  InlineVec<std::string_view, 16> open_;  // enclosing element names
};

}  // namespace hcm::xml
