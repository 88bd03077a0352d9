#include "hcm_analyze/token_stream.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace hcm::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Longest-match table for the multi-character punctuators the passes
// care to see whole (:: above all — qualification is load-bearing).
constexpr std::array<std::string_view, 21> kPuncts = {
    "<<=", ">>=", "->*", "...", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=",  "&&",  "||",  "++",  "--", "+=", "-=", "*=", "/=", "%="};

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

// Parses an `hcm:allow(rule[, rule...]): reason` annotation. Only a
// comment that *starts* with hcm:allow (after the comment markers) is
// an annotation — prose that merely mentions the syntax is not.
void parse_allow(std::string_view comment, int line,
                 std::vector<AllowNote>& out) {
  while (!comment.empty() &&
         (comment.front() == '/' || comment.front() == '*' ||
          std::isspace(static_cast<unsigned char>(comment.front())))) {
    comment.remove_prefix(1);
  }
  std::size_t pos = comment.rfind("hcm:allow", 0);
  if (pos != 0) return;
  AllowNote note;
  note.line = line;
  std::size_t open = pos + 9;
  if (open >= comment.size() || comment[open] != '(') {
    note.malformed = true;
    out.push_back(std::move(note));
    return;
  }
  std::size_t close = comment.find(')', open);
  if (close == std::string_view::npos) {
    note.malformed = true;
    out.push_back(std::move(note));
    return;
  }
  std::string_view list = comment.substr(open + 1, close - open - 1);
  while (!list.empty()) {
    std::size_t comma = list.find(',');
    std::string_view rule = trim(list.substr(0, comma));
    if (!rule.empty()) note.rules.emplace_back(rule);
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  std::size_t colon = comment.find(':', close);
  if (colon != std::string_view::npos) {
    note.reason = std::string(trim(comment.substr(colon + 1)));
  }
  if (note.rules.empty() || note.reason.empty()) note.malformed = true;
  out.push_back(std::move(note));
}

// True when the '"' at `i` opens a raw string, i.e. it is preceded by
// R with an optional u8/u/U/L prefix that is itself not glued onto a
// longer identifier.
bool raw_string_at(std::string_view s, std::size_t i) {
  if (i == 0 || s[i] != '"' || s[i - 1] != 'R') return false;
  std::size_t r = i - 1;
  if (r == 0) return true;
  char p = s[r - 1];
  if (!ident_char(p)) return true;
  if ((p == 'u' || p == 'U' || p == 'L') &&
      (r < 2 || !ident_char(s[r - 2]))) {
    return true;
  }
  if (p == '8' && r >= 2 && s[r - 2] == 'u' &&
      (r < 3 || !ident_char(s[r - 3]))) {
    return true;
  }
  return false;
}

// Returns the index one past the closing quote of the raw string whose
// opening '"' is at `i` (or s.size() when unterminated).
std::size_t raw_string_end(std::string_view s, std::size_t i) {
  std::size_t open_paren = s.find('(', i + 1);
  if (open_paren == std::string_view::npos) return s.size();
  std::string closer = ")";
  closer += s.substr(i + 1, open_paren - i - 1);
  closer += '"';
  std::size_t end = s.find(closer, open_paren + 1);
  if (end == std::string_view::npos) return s.size();
  return end + closer.size();
}

}  // namespace

TokenStream lex(std::string_view src) {
  TokenStream ts;
  int line = 1;
  bool at_line_start = true;
  std::size_t i = 0;

  auto count_lines = [&](std::size_t from, std::size_t to) {
    line += static_cast<int>(
        std::count(src.begin() + static_cast<std::ptrdiff_t>(from),
                   src.begin() + static_cast<std::ptrdiff_t>(to), '\n'));
  };

  while (i < src.size()) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';

    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }

    if (c == '/' && next == '/') {  // line comment
      std::size_t end = src.find('\n', i);
      if (end == std::string_view::npos) end = src.size();
      parse_allow(src.substr(i, end - i), line, ts.allows);
      i = end;
      continue;
    }
    if (c == '/' && next == '*') {  // block comment
      std::size_t end = src.find("*/", i + 2);
      std::size_t stop = end == std::string_view::npos ? src.size() : end + 2;
      parse_allow(src.substr(i, stop - i), line, ts.allows);
      count_lines(i, stop);
      i = stop;
      continue;
    }

    if (c == '#' && at_line_start) {  // preprocessor directive
      std::size_t begin = i;
      int begin_line = line;
      while (i < src.size()) {
        std::size_t end = src.find('\n', i);
        if (end == std::string_view::npos) {
          i = src.size();
          break;
        }
        // Backslash continuation keeps the directive going.
        std::size_t last = end;
        while (last > i && (src[last - 1] == '\r')) --last;
        if (last > i && src[last - 1] == '\\') {
          ++line;
          i = end + 1;
          continue;
        }
        i = end;
        break;
      }
      ts.tokens.push_back({TokKind::kDirective,
                           std::string(src.substr(begin, i - begin)),
                           begin_line});
      continue;
    }
    at_line_start = false;

    if (raw_string_at(src, i)) {
      // Re-lex: drop the just-consumed prefix identifier if it was
      // emitted (R / uR / u8R glued to the quote is consumed here as
      // one literal instead).
      std::size_t end = raw_string_end(src, i);
      int begin_line = line;
      count_lines(i, end);
      if (!ts.tokens.empty() && ts.tokens.back().kind == TokKind::kIdent) {
        // The prefix identifier (e.g. "R") was already tokenized when
        // the quote follows it directly; merge it into the literal.
        ts.tokens.pop_back();
      }
      ts.tokens.push_back({TokKind::kString,
                           std::string(src.substr(i, end - i)), begin_line});
      i = end;
      continue;
    }

    if (c == '"' || c == '\'') {  // ordinary string / char literal
      char quote = c;
      std::size_t begin = i;
      int begin_line = line;
      ++i;
      while (i < src.size() && src[i] != quote && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < src.size() && src[i + 1] != '\n') ++i;
        ++i;
      }
      if (i < src.size() && src[i] == quote) ++i;
      ts.tokens.push_back({quote == '"' ? TokKind::kString : TokKind::kChar,
                           std::string(src.substr(begin, i - begin)),
                           begin_line});
      continue;
    }

    if (ident_start(c)) {
      std::size_t begin = i;
      while (i < src.size() && ident_char(src[i])) ++i;
      ts.tokens.push_back(
          {TokKind::kIdent, std::string(src.substr(begin, i - begin)), line});
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(next)) != 0)) {
      std::size_t begin = i;
      while (i < src.size() &&
             (ident_char(src[i]) || src[i] == '.' || src[i] == '\'' ||
              ((src[i] == '+' || src[i] == '-') && i > begin &&
               (src[i - 1] == 'e' || src[i - 1] == 'E' || src[i - 1] == 'p' ||
                src[i - 1] == 'P')))) {
        ++i;
      }
      ts.tokens.push_back(
          {TokKind::kNumber, std::string(src.substr(begin, i - begin)), line});
      continue;
    }

    // Punctuator: longest match from the table, else the single char.
    std::string_view rest = src.substr(i);
    std::string_view matched;
    for (std::string_view p : kPuncts) {
      if (rest.substr(0, p.size()) == p) {
        matched = p;
        break;
      }
    }
    if (matched.empty()) matched = rest.substr(0, 1);
    ts.tokens.push_back({TokKind::kPunct, std::string(matched), line});
    i += matched.size();
  }
  return ts;
}

std::vector<IncludeRef> extract_includes(const TokenStream& ts) {
  std::vector<IncludeRef> out;
  for (const Token& t : ts.tokens) {
    if (t.kind != TokKind::kDirective) continue;
    std::string_view text = t.text;
    std::size_t pos = text.find("include");
    if (pos == std::string_view::npos) continue;
    // Only whitespace may sit between '#' and "include".
    std::string_view between = text.substr(1, pos - 1);
    if (!trim(between).empty()) continue;
    std::size_t open = text.find_first_of("\"<", pos);
    if (open == std::string_view::npos) continue;
    char closer = text[open] == '<' ? '>' : '"';
    std::size_t close = text.find(closer, open + 1);
    if (close == std::string_view::npos) continue;
    out.push_back({std::string(text.substr(open + 1, close - open - 1)),
                   t.line, text[open] == '<'});
  }
  return out;
}

// --- scope walker -------------------------------------------------------

namespace {

struct Scope {
  char kind;  // 'n' namespace, 'c' class, 'f' function, 'b' block/init
  std::string name;
  int fn_index = -1;
  bool reachable = true;  // 'c': the class can be named from outside
  bool is_public = true;  // 'c': the access section now open
};

bool is_control_keyword(const Token& t) {
  return t.kind == TokKind::kIdent &&
         (t.text == "if" || t.text == "for" || t.text == "while" ||
          t.text == "switch" || t.text == "do" || t.text == "else" ||
          t.text == "try" || t.text == "catch");
}

bool has_ident(const std::vector<Token>& toks, std::size_t begin,
               std::size_t end, std::string_view word) {
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind == TokKind::kIdent && toks[i].text == word) return true;
  }
  return false;
}

// First '(' outside template angles whose previous token is an
// identifier — the function-name paren of a declarator. Returns the
// identifier index or npos.
std::size_t find_name_before_paren(const std::vector<Token>& toks,
                                   std::size_t begin, std::size_t end) {
  int angle = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "<") ++angle;
    if (t.text == ">" && angle > 0) --angle;
    if (t.text == "(" && angle == 0 && i > begin &&
        toks[i - 1].kind == TokKind::kIdent) {
      return i - 1;
    }
  }
  return std::string::npos;
}

// Does [begin, end) contain a single ':' that follows a ')' — the
// shape of a constructor member-initializer list?
bool has_ctor_init_colon(const std::vector<Token>& toks, std::size_t begin,
                         std::size_t end) {
  bool seen_close = false;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == ")") seen_close = true;
    if (t.text == ":" && seen_close) return true;
  }
  return false;
}

struct WalkCallbacks {
  std::vector<FunctionRange>* functions = nullptr;
  const ScopeVisitor* visitor = nullptr;
};

void walk_impl(const TokenStream& ts, const WalkCallbacks& cb) {
  const auto& toks = ts.tokens;
  std::vector<Scope> stack;
  std::vector<FunctionRange> local_fns;
  std::vector<FunctionRange>& fns =
      cb.functions != nullptr ? *cb.functions : local_fns;
  std::size_t stmt = 0;
  int paren = 0;

  auto where_now = [&]() {
    StatementScope where;
    where.ns_scope = true;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == 'n') continue;
      where.ns_scope = false;
      if (it->kind == 'b') continue;
      where.fn_scope = it->kind == 'f';
      break;
    }
    if (!stack.empty() && stack.back().kind == 'c') {
      where.class_scope = true;
      where.class_name = stack.back().name;
      where.exported = stack.back().reachable && stack.back().is_public;
    } else {
      where.exported = where.ns_scope;
    }
    return where;
  };

  auto emit_stmt = [&](std::size_t begin, std::size_t end, bool body_head) {
    if (cb.visitor == nullptr || cb.visitor->on_statement == nullptr) return;
    if (begin >= end) return;
    StatementScope where = where_now();
    where.body_head = body_head;
    cb.visitor->on_statement(cb.visitor->ctx, ts, begin, end, where);
  };

  auto enclosing_class = [&]() -> const Scope* {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == 'c') return &*it;
      if (it->kind == 'f') return nullptr;
    }
    return nullptr;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kDirective) {
      stmt = i + 1;
      continue;
    }
    if (t.kind != TokKind::kPunct) continue;

    if (t.text == "(") {
      ++paren;
      continue;
    }
    if (t.text == ")") {
      if (paren > 0) --paren;
      continue;
    }
    if (paren > 0) continue;  // inside parens: no statement boundaries

    if (t.text == ";") {
      emit_stmt(stmt, i, false);
      stmt = i + 1;
      continue;
    }
    if (t.text == ":") {
      // Access specifiers and case/default labels end a "statement".
      if (i == stmt + 1 && toks[stmt].kind == TokKind::kIdent &&
          (toks[stmt].text == "public" || toks[stmt].text == "private" ||
           toks[stmt].text == "protected" || toks[stmt].text == "default")) {
        if (!stack.empty() && stack.back().kind == 'c') {
          stack.back().is_public = toks[stmt].text == "public";
        }
        stmt = i + 1;
      } else if (stmt < i && toks[stmt].kind == TokKind::kIdent &&
                 toks[stmt].text == "case") {
        stmt = i + 1;
      }
      continue;
    }

    if (t.text == "{") {
      // Classify the brace from its statement head [stmt, i).
      char kind = 'b';
      std::string name;
      int fn_index = -1;
      bool is_public = true;
      std::size_t begin = stmt;
      if (begin < i) {
        const Token& first = toks[begin];
        const Token& prev = toks[i - 1];
        bool control = is_control_keyword(first);
        bool ns_like =
            has_ident(toks, begin, i, "namespace") ||
            (first.kind == TokKind::kIdent && first.text == "extern" &&
             begin + 1 < i && toks[begin + 1].kind == TokKind::kString);
        bool prev_blocks_decl =
            prev.kind == TokKind::kPunct &&
            (prev.text == "=" || prev.text == "," || prev.text == "[" ||
             prev.text == "(");
        bool has_paren = false;
        for (std::size_t j = begin; j < i && !has_paren; ++j) {
          has_paren =
              toks[j].kind == TokKind::kPunct && toks[j].text == "(";
        }
        bool class_like = !has_paren &&
                          (has_ident(toks, begin, i, "class") ||
                           has_ident(toks, begin, i, "struct") ||
                           has_ident(toks, begin, i, "union") ||
                           has_ident(toks, begin, i, "enum"));
        // `ident {` is a braced initializer (`Type name{...}`,
        // `b_{2}` in a ctor-init list) unless the head is a function
        // signature whose trailer (noexcept, override, -> Type) ends
        // in an identifier — distinguished by the presence of a
        // parameter list with no ctor-init colon after it.
        bool init_like = prev.kind == TokKind::kIdent && !class_like &&
                         !ns_like &&
                         (!has_paren || has_ctor_init_colon(toks, begin, i));
        if (control || prev_blocks_decl || init_like) {
          kind = 'b';  // braced initializer / control block
        } else if (ns_like) {
          kind = 'n';
          for (std::size_t j = begin; j + 1 < i; ++j) {
            if (toks[j].kind == TokKind::kIdent &&
                toks[j].text == "namespace" &&
                toks[j + 1].kind == TokKind::kIdent) {
              name = toks[j + 1].text;
            }
          }
        } else if (class_like) {
          kind = 'c';
          // The keyword that opens the body is the first one outside
          // template angles: in `template <class T> struct X`, `class`
          // names a parameter.
          int angle = 0;
          for (std::size_t j = begin; j < i; ++j) {
            if (toks[j].kind == TokKind::kPunct) {
              if (toks[j].text == "<") ++angle;
              if (toks[j].text == ">" && angle > 0) --angle;
              if (toks[j].text == ">>" && angle > 0) {
                angle = angle >= 2 ? angle - 2 : 0;
              }
            }
            if (angle == 0 && toks[j].kind == TokKind::kIdent &&
                (toks[j].text == "class" || toks[j].text == "struct" ||
                 toks[j].text == "union" || toks[j].text == "enum")) {
              is_public = toks[j].text != "class";
              for (std::size_t k = j + 1; k < i; ++k) {
                if (toks[k].kind == TokKind::kIdent &&
                    toks[k].text != "class" && toks[k].text != "final" &&
                    toks[k].text != "alignas") {
                  name = toks[k].text;
                  break;
                }
                if (toks[k].kind == TokKind::kPunct && toks[k].text != "[" &&
                    toks[k].text != "]") {
                  break;
                }
              }
              break;
            }
          }
        } else if (has_paren) {
          kind = 'f';
          std::size_t name_idx = find_name_before_paren(toks, begin, i);
          if (name_idx != std::string::npos) {
            name = toks[name_idx].text;
            std::string qualified = name;
            std::size_t q = name_idx;
            while (q >= 2 && toks[q - 1].kind == TokKind::kPunct &&
                   toks[q - 1].text == "::" &&
                   toks[q - 2].kind == TokKind::kIdent) {
              qualified = toks[q - 2].text + "::" + qualified;
              q -= 2;
            }
            if (q == name_idx) {  // no explicit qualifier: use class scope
              if (const Scope* cls = enclosing_class(); cls != nullptr &&
                                                        !cls->name.empty()) {
                qualified = cls->name + "::" + qualified;
              }
            }
            fn_index = static_cast<int>(fns.size());
            fns.push_back({name, qualified, toks[begin].line, toks[i].line});
          }
        }
        if (kind != 'n' && kind != 'c') emit_stmt(begin, i, kind == 'f');
      }
      stack.push_back(
          {kind, std::move(name), fn_index, where_now().exported, is_public});
      stmt = i + 1;
      continue;
    }
    if (t.text == "}") {
      if (!stack.empty()) {
        Scope top = std::move(stack.back());
        stack.pop_back();
        if (top.kind == 'f' && top.fn_index >= 0) {
          fns[static_cast<std::size_t>(top.fn_index)].end_line = t.line;
        }
      }
      stmt = i + 1;
      continue;
    }
  }
}

}  // namespace

std::vector<FunctionRange> function_ranges(const TokenStream& ts) {
  std::vector<FunctionRange> out;
  WalkCallbacks cb;
  cb.functions = &out;
  walk_impl(ts, cb);
  return out;
}

void walk_scopes(const TokenStream& ts, const ScopeVisitor& visitor) {
  WalkCallbacks cb;
  cb.visitor = &visitor;
  walk_impl(ts, cb);
}

}  // namespace hcm::analyze
