#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/base64.hpp"
#include "common/value_codec.hpp"

namespace hcm {

namespace {

void write_value(std::string& out, const Value& v);

void write_string(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

void write_value(std::string& out, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      out += "null";
      break;
    case ValueType::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case ValueType::kInt:
      out += std::to_string(v.as_int());
      break;
    case ValueType::kDouble: {
      const double d = v.as_double();
      if (std::isfinite(d)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        out += buf;
        // %.17g of an integral double has no '.', 'e' — keep it a
        // double on parse-back.
        if (out.find_first_of(".eE", out.size() - std::strlen(buf)) ==
            std::string::npos) {
          out += ".0";
        }
      } else {
        out += "null";  // JSON has no NaN/Inf
      }
      break;
    }
    case ValueType::kString:
      write_string(out, v.as_string());
      break;
    case ValueType::kBytes:
      write_string(out, base64_encode(v.as_bytes()));
      break;
    case ValueType::kList: {
      out += '[';
      bool first = true;
      for (const Value& e : v.as_list()) {
        if (!first) out += ',';
        first = false;
        write_value(out, e);
      }
      out += ']';
      break;
    }
    case ValueType::kMap: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.as_map()) {
        if (!first) out += ',';
        first = false;
        write_string(out, k);
        out += ':';
        write_value(out, e);
      }
      out += '}';
      break;
    }
  }
}

// --- parser -------------------------------------------------------------

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string err;

  [[nodiscard]] bool failed() const { return !err.empty(); }

  void fail(const std::string& what) {
    if (err.empty()) {
      err = what + " at offset " + std::to_string(pos);
    }
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  [[nodiscard]] char peek() const {
    return pos < text.size() ? text[pos] : '\0';
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos;
    return true;
  }

  bool consume_word(const char* w) {
    std::size_t n = std::strlen(w);
    if (text.compare(pos, n, w) != 0) return false;
    pos += n;
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDocumentDepth) {
      fail("nesting too deep");
      return {};
    }
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_map(depth);
    if (c == '[') return parse_list(depth);
    if (c == '"') return Value(parse_string());
    if (c == 't') {
      if (!consume_word("true")) fail("bad literal");
      return Value(true);
    }
    if (c == 'f') {
      if (!consume_word("false")) fail("bad literal");
      return Value(false);
    }
    if (c == 'n') {
      if (!consume_word("null")) fail("bad literal");
      return {};
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
    return {};
  }

  Value parse_number() {
    const std::size_t begin = pos;
    if (peek() == '-') ++pos;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos;
    bool integral = true;
    if (peek() == '.') {
      integral = false;
      ++pos;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      ++pos;
      if (peek() == '+' || peek() == '-') ++pos;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos;
    }
    const std::string tok = text.substr(begin, pos - begin);
    if (tok.empty() || tok == "-") {
      fail("bad number");
      return {};
    }
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Value(static_cast<std::int64_t>(v));
      }
    }
    return Value(std::strtod(tok.c_str(), nullptr));
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) {
      fail("expected string");
      return out;
    }
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          fail("unescaped control character");
          return out;
        }
        out += c;
        continue;
      }
      if (pos >= text.size()) break;
      char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) {
            fail("truncated \\u escape");
            return out;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("bad \\u escape");
              return out;
            }
          }
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through as two 3-byte sequences; telemetry names are ASCII).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          }
          break;
        }
        default:
          fail("bad escape");
          return out;
      }
    }
    fail("unterminated string");
    return out;
  }

  Value parse_list(int depth) {
    ValueList out;
    consume('[');
    skip_ws();
    if (consume(']')) return Value(std::move(out));
    for (;;) {
      out.push_back(parse_value(depth + 1));
      if (failed()) return {};
      skip_ws();
      if (consume(']')) return Value(std::move(out));
      if (!consume(',')) {
        fail("expected ',' or ']'");
        return {};
      }
    }
  }

  // Members go in document order and are sorted once at the end; the
  // last of a repeated key wins, as it would by assignment.
  Value parse_map(int depth) {
    std::vector<ValueMap::value_type> out;
    const auto done = [&out] {
      return Value(ValueMap::from_unsorted(std::move(out),
                                           ValueMap::Duplicates::kKeepLast));
    };
    consume('{');
    skip_ws();
    if (consume('}')) return done();
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      if (failed()) return {};
      skip_ws();
      if (!consume(':')) {
        fail("expected ':'");
        return {};
      }
      out.emplace_back(std::move(key), parse_value(depth + 1));
      if (failed()) return {};
      skip_ws();
      if (consume('}')) return done();
      if (!consume(',')) {
        fail("expected ',' or '}'");
        return {};
      }
    }
  }
};

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_write(const Value& v) {
  std::string out;
  write_value(out, v);
  return out;
}

Result<Value> json_parse(const std::string& text) {
  Parser p{text, 0, {}};
  Value v = p.parse_value(0);
  if (!p.failed()) {
    p.skip_ws();
    if (p.pos != text.size()) p.fail("trailing content");
  }
  if (p.failed()) return invalid_argument("json: " + p.err);
  return v;
}

}  // namespace hcm
