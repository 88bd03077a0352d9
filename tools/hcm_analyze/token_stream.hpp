// Lexing layer of hcm_analyze: the repo's one C++ source lexer, a real
// token stream over raw source text that correctly skips comments,
// string/char literals and raw strings — shared by every pass so no
// rule ever fires on text inside a literal.
// Also extracts the `// hcm:allow(<rule>): <reason>` escape-hatch
// annotations, `#include` targets, and (via a heuristic scope walker
// pinned by tests/tools/hcm_analyze_test.cpp) function body ranges used
// for manifest-scoped passes.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hcm::analyze {

enum class TokKind {
  kIdent,      // identifiers and keywords
  kNumber,     // numeric literals (pp-number, loosely)
  kString,     // string literal including quotes; raw strings collapse here
  kChar,       // character literal
  kPunct,      // operator / punctuator (longest-match for common digraphs)
  kDirective,  // whole preprocessor line(s), backslash-continuations joined
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
};

// One `hcm:allow(rule[, rule...]): reason` annotation found in a
// comment. An allow suppresses matching findings on its own line and on
// the following line (so it can trail the flagged statement or sit on
// its own line directly above it). A reason is mandatory: suppression
// without a recorded justification is itself a finding.
struct AllowNote {
  int line = 0;
  std::vector<std::string> rules;
  std::string reason;
  bool malformed = false;  // "hcm:allow" seen but rules or reason missing
};

struct TokenStream {
  std::vector<Token> tokens;
  std::vector<AllowNote> allows;
};

// Lexes `src`. Never fails: unterminated literals end at newline (or
// EOF for raw strings / block comments), matching compiler recovery.
[[nodiscard]] TokenStream lex(std::string_view src);

struct IncludeRef {
  std::string path;  // as written between the delimiters
  int line = 0;
  bool angled = false;  // <...> (system) vs "..." (project)
};

// All #include targets in the stream, in order.
[[nodiscard]] std::vector<IncludeRef> extract_includes(const TokenStream& ts);

// A function body found by the scope walker. `qualified` includes
// explicit qualifiers and enclosing class names ("Stream::send");
// `name` is the bare identifier ("send"). Lines span the definition
// head through the closing brace, so nested lambdas are inside.
struct FunctionRange {
  std::string name;
  std::string qualified;
  int begin_line = 0;
  int end_line = 0;
};

[[nodiscard]] std::vector<FunctionRange> function_ranges(
    const TokenStream& ts);

// Scope-aware statement visitor for declaration-shaped passes.
// `on_statement(begin, end, ns_scope, fn_scope)` is called with token
// indices [begin, end) covering one statement head — terminated by `;`
// at brace/paren depth 0, or by the `{` of a braced initializer —
// together with whether the statement sits at namespace scope or inside
// a function body (class-member scope reports neither).
struct ScopeVisitor {
  // on_statement(begin, end, at_namespace_scope, in_function)
  void (*on_statement)(void* ctx, const TokenStream& ts, std::size_t begin,
                       std::size_t end, bool ns_scope, bool fn_scope) = nullptr;
  void* ctx = nullptr;
};

void walk_scopes(const TokenStream& ts, const ScopeVisitor& visitor);

}  // namespace hcm::analyze
