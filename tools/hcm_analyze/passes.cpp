#include "hcm_analyze/passes.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <functional>
#include <set>

namespace hcm::analyze {

namespace {

bool is_ident(const Token& t, std::string_view word) {
  return t.kind == TokKind::kIdent && t.text == word;
}

bool is_punct(const Token& t, std::string_view p) {
  return t.kind == TokKind::kPunct && t.text == p;
}

std::string trim_copy(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

// --- layering -----------------------------------------------------------

LayerConfig default_layers() {
  // Bottom-up ranks; equal rank = peers that must not include each
  // other. This is the dependency DAG the build actually layers on:
  // the wire stack (xml -> http -> soap) sits on the simulated network
  // (sim -> obs -> net), the durable store (store, a peer of xml/sim
  // above only common) backs soap's registry, the five middleware
  // stacks are peers above it, core composes them, testbed composes
  // core.
  LayerConfig cfg;
  cfg.rank = {
      {"common", 0}, {"xml", 1},  {"sim", 1},  {"store", 1}, {"obs", 2},
      {"net", 3},    {"http", 4}, {"soap", 5}, {"havi", 6},  {"jini", 6},
      {"upnp", 6},   {"x10", 6},  {"mail", 6}, {"core", 7},  {"testbed", 8},
  };
  return cfg;
}

std::string module_of(const std::string& rel_path) {
  if (rel_path.rfind("src/", 0) != 0) return {};
  std::size_t begin = 4;
  std::size_t end = rel_path.find('/', begin);
  if (end == std::string::npos) return {};
  return rel_path.substr(begin, end - begin);
}

Findings layering_check_file(const std::string& rel_path,
                             const TokenStream& ts,
                             const LayerConfig& layers) {
  Findings out;
  std::string mod = module_of(rel_path);
  if (mod.empty()) return out;  // only src/ modules are ranked
  auto self = layers.rank.find(mod);
  if (self == layers.rank.end()) {
    out.push_back({"layering-unknown-include", rel_path, 0,
                   "module '" + mod +
                       "' has no rank in the layering order — add it to "
                       "default_layers() (and the docs diagram) first"});
    return out;
  }
  for (const IncludeRef& inc : extract_includes(ts)) {
    if (inc.angled) continue;  // system headers
    std::size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // local/relative include
    std::string target = inc.path.substr(0, slash);
    if (target == mod) continue;
    auto it = layers.rank.find(target);
    if (it == layers.rank.end()) {
      out.push_back({"layering-unknown-include", rel_path, inc.line,
                     "include \"" + inc.path +
                         "\" names no ranked src/ module"});
      continue;
    }
    if (it->second > self->second) {
      out.push_back(
          {"layering-upward", rel_path, inc.line,
           "module '" + mod + "' (rank " + std::to_string(self->second) +
               ") includes upward into '" + target + "' (rank " +
               std::to_string(it->second) +
               ") — invert the dependency or move the shared piece down"});
    } else if (it->second == self->second) {
      out.push_back({"layering-lateral", rel_path, inc.line,
                     "peer modules '" + mod + "' and '" + target +
                         "' must not include each other (adapters talk "
                         "through core, not directly)"});
    }
  }
  return out;
}

Findings layering_check_cycles(
    const std::map<std::string, std::vector<std::string>>& graph) {
  Findings out;
  // Iterative DFS with tri-color marking; the first back edge found on
  // each cycle reports the full path once.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> path;

  std::function<void(const std::string&)> visit =
      [&](const std::string& file) {
        color[file] = 1;
        path.push_back(file);
        auto it = graph.find(file);
        if (it != graph.end()) {
          for (const std::string& dep : it->second) {
            int c = color[dep];
            if (c == 1) {
              auto begin = std::find(path.begin(), path.end(), dep);
              std::string msg = "include cycle: ";
              for (auto p = begin; p != path.end(); ++p) msg += *p + " -> ";
              msg += dep;
              out.push_back({"layering-cycle", dep, 0, msg});
            } else if (c == 0) {
              visit(dep);
            }
          }
        }
        path.pop_back();
        color[file] = 2;
      };
  for (const auto& [file, deps] : graph) {
    (void)deps;
    if (color[file] == 0) visit(file);
  }
  return out;
}

// --- determinism --------------------------------------------------------

bool determinism_covered(const std::string& rel_path) {
  return rel_path.rfind("src/sim/", 0) == 0 ||
         rel_path.rfind("src/core/", 0) == 0 ||
         rel_path.rfind("src/store/", 0) == 0;
}

Findings determinism_check(const std::string& rel_path,
                           const TokenStream& ts) {
  Findings out;
  const auto& toks = ts.tokens;

  static const std::set<std::string> kWallClock = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "timespec_get",
      "localtime",     "gmtime"};
  static const std::set<std::string> kAmbientRandom = {
      "rand", "srand", "drand48", "lrand48", "random_shuffle",
      "random_device"};
  static const std::set<std::string> kEngines = {
      "mt19937",        "mt19937_64",   "default_random_engine",
      "minstd_rand",    "minstd_rand0", "knuth_b",
      "ranlux24",       "ranlux48",     "ranlux24_base",
      "ranlux48_base"};
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};

  // Pass A: banned identifiers and default-constructed engines.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (kWallClock.count(t.text) != 0) {
      out.push_back({"determinism-wallclock", rel_path, t.line,
                     "'" + t.text +
                         "' reads the wall clock — the deterministic core "
                         "must use the sim virtual clock "
                         "(sim::Scheduler::now)"});
      continue;
    }
    if (kAmbientRandom.count(t.text) != 0) {
      out.push_back({"determinism-random", rel_path, t.line,
                     "'" + t.text +
                         "' is an ambient randomness source — use the "
                         "seeded sim RNG (sim::Scheduler::rng)"});
      continue;
    }
    if (kEngines.count(t.text) != 0) {
      // Flag only default construction: `Engine e;`, `Engine e{}`,
      // `Engine e()`, or a default-constructed temporary. A seeded
      // engine (`Engine e{kSeed}`) and references/parameters pass.
      std::size_t j = i + 1;
      bool flagged = false;
      if (j < toks.size() && toks[j].kind == TokKind::kIdent) ++j;
      if (j < toks.size()) {
        if (is_punct(toks[j], ";")) {
          flagged = j > i + 1;  // `Engine name;` (bare `Engine;` is odd)
        } else if ((is_punct(toks[j], "{") || is_punct(toks[j], "(")) &&
                   j + 1 < toks.size() &&
                   (is_punct(toks[j + 1], "}") ||
                    is_punct(toks[j + 1], ")"))) {
          flagged = true;  // empty-init variable or temporary
        }
      }
      if (flagged) {
        out.push_back({"determinism-random", rel_path, t.line,
                       "'" + t.text +
                           "' is default-constructed (unseeded) — seed it "
                           "from the scenario, or use "
                           "sim::Scheduler::rng"});
      }
    }
  }

  // Pass B: iteration over unordered containers. File-local heuristic:
  // names declared with an unordered_* type, then range-for or
  // begin()/end() over those names.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        kUnordered.count(toks[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j >= toks.size() || !is_punct(toks[j], "<")) continue;
    int angle = 0;
    for (; j < toks.size(); ++j) {
      if (is_punct(toks[j], "<")) ++angle;
      if (is_punct(toks[j], ">") && --angle == 0) break;
      if (is_punct(toks[j], ">>") && (angle -= 2) <= 0) break;
    }
    ++j;
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
            is_ident(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      unordered_names.insert(toks[j].text);
    }
  }
  if (!unordered_names.empty()) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (is_ident(toks[i], "for") && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "(")) {
        // Find the range-for ':' at depth 1, then scan the range expr.
        int depth = 0;
        std::size_t colon = 0;
        std::size_t close = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
          if (is_punct(toks[j], "(")) ++depth;
          if (is_punct(toks[j], ")") && --depth == 0) {
            close = j;
            break;
          }
          if (is_punct(toks[j], ":") && depth == 1 && colon == 0) colon = j;
        }
        if (colon == 0 || close == 0) continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (toks[j].kind == TokKind::kIdent &&
              unordered_names.count(toks[j].text) != 0) {
            out.push_back(
                {"determinism-unordered-iter", rel_path, toks[i].line,
                 "range-for over unordered container '" + toks[j].text +
                     "' — iteration order is unspecified and leaks into "
                     "traces/scheduling; use a sorted copy or an ordered "
                     "container"});
            break;
          }
        }
      } else if (toks[i].kind == TokKind::kIdent &&
                 unordered_names.count(toks[i].text) != 0 &&
                 i + 2 < toks.size() && is_punct(toks[i + 1], ".") &&
                 (is_ident(toks[i + 2], "begin") ||
                  is_ident(toks[i + 2], "end") ||
                  is_ident(toks[i + 2], "cbegin") ||
                  is_ident(toks[i + 2], "cend"))) {
        out.push_back(
            {"determinism-unordered-iter", rel_path, toks[i].line,
             "iterator over unordered container '" + toks[i].text +
                 "' — iteration order is unspecified and leaks into "
                 "traces/scheduling; use a sorted copy or an ordered "
                 "container"});
      }
    }
  }
  return out;
}

// --- hot-path allocations -----------------------------------------------

std::vector<HotScope> parse_manifest(const std::string& text) {
  std::vector<HotScope> out;
  for (const std::string& raw : split_lines(text)) {
    std::string line = trim_copy(raw);
    if (line.empty() || line[0] == '#') continue;
    HotScope scope;
    std::size_t sp = line.find_first_of(" \t");
    if (sp == std::string::npos) {
      scope.path = line;
    } else {
      scope.path = line.substr(0, sp);
      std::string rest = trim_copy(line.substr(sp + 1));
      if (rest.rfind("fn=", 0) == 0) {
        std::string list = rest.substr(3);
        std::size_t begin = 0;
        while (begin <= list.size()) {
          std::size_t comma = list.find(',', begin);
          std::string fn = trim_copy(
              list.substr(begin, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - begin));
          if (!fn.empty()) scope.fns.push_back(fn);
          if (comma == std::string::npos) break;
          begin = comma + 1;
        }
      }
    }
    out.push_back(std::move(scope));
  }
  return out;
}

Findings hotpath_check(const std::string& rel_path, const TokenStream& ts,
                       const HotScope& scope) {
  Findings out;
  // Line ranges covered by the manifest's fn= list (whole file if none).
  std::vector<std::pair<int, int>> ranges;
  if (!scope.fns.empty()) {
    for (const FunctionRange& fr : function_ranges(ts)) {
      for (const std::string& pat : scope.fns) {
        if (fr.name == pat || fr.qualified == pat ||
            fr.qualified.rfind(pat + "::", 0) == 0) {
          ranges.emplace_back(fr.begin_line, fr.end_line);
          break;
        }
      }
    }
    if (ranges.empty()) return out;  // scoped functions absent from file
  }
  auto in_scope = [&](int line) {
    if (scope.fns.empty()) return true;
    return std::any_of(ranges.begin(), ranges.end(), [&](const auto& r) {
      return line >= r.first && line <= r.second;
    });
  };

  static const std::set<std::string> kNodeContainers = {
      "map",           "multimap",      "list",
      "forward_list",  "set",           "multiset",
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};

  // Registry accessors that walk the name -> metric map under a mutex.
  // On the hot path these must run once at setup; per-call code mutates
  // through the cached Counter&/Histogram& handle instead.
  static const std::set<std::string> kRegistryLookups = {
      "counter",      "gauge",          "histogram",      "unique_scope",
      "find_counter", "find_gauge",     "find_histogram"};

  // Growth calls that reallocate a flat byte buffer. On the wire path
  // message bytes live in pooled BlockStream chains; a Bytes that grows
  // per message is allocator traffic the pool was built to remove.
  static const std::set<std::string> kBytesGrowth = {"reserve", "resize",
                                                     "append", "push_back"};

  const auto& toks = ts.tokens;

  // Names declared as a fresh `Bytes <name>`, each scoped to the
  // function body holding the declaration (a `Bytes out` in one
  // function must not taint an unrelated `out` elsewhere in the file;
  // a namespace-scope declaration scopes to the whole file). The
  // bytes-growth rule checks member growth calls against these.
  std::map<std::string, std::vector<std::pair<int, int>>> bytes_decls;
  {
    const std::vector<FunctionRange> fns = function_ranges(ts);
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!is_ident(toks[i], "Bytes") ||
          toks[i + 1].kind != TokKind::kIdent ||
          (i >= 1 && is_punct(toks[i - 1], "::"))) {
        continue;
      }
      std::pair<int, int> range{1, INT_MAX};
      for (const FunctionRange& fr : fns) {
        if (toks[i].line >= fr.begin_line && toks[i].line <= fr.end_line) {
          range = {fr.begin_line, fr.end_line};
          break;
        }
      }
      bytes_decls[toks[i + 1].text].push_back(range);
    }
  }
  auto is_bytes_name = [&](const std::string& name, int line) {
    auto it = bytes_decls.find(name);
    if (it == bytes_decls.end()) return false;
    return std::any_of(it->second.begin(), it->second.end(),
                       [line](const std::pair<int, int>& r) {
                         return line >= r.first && line <= r.second;
                       });
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || !in_scope(t.line)) continue;
    if (t.text == "new") {
      out.push_back({"hotpath-new", rel_path, t.line,
                     "heap allocation ('new') on the wire hot path — use "
                     "the slab/buffer-reuse idioms this path was "
                     "de-allocated to (docs/PERFORMANCE.md)"});
    } else if (t.text == "make_unique" || t.text == "make_shared") {
      out.push_back({"hotpath-make", rel_path, t.line,
                     "'" + t.text +
                         "' allocates on the wire hot path — hoist the "
                         "allocation out of the per-message cycle"});
    } else if (t.text == "std" && i + 3 < toks.size() &&
               is_punct(toks[i + 1], "::") &&
               toks[i + 2].kind == TokKind::kIdent) {
      const std::string& name = toks[i + 2].text;
      if (name == "function") {
        out.push_back(
            {"hotpath-std-function", rel_path, t.line,
             "std::function on the wire hot path type-erases and may "
             "heap-allocate its capture — take a template parameter or "
             "a function pointer + context"});
      } else if (kNodeContainers.count(name) != 0 &&
                 is_punct(toks[i + 3], "<")) {
        out.push_back(
            {"hotpath-node-container", rel_path, t.line,
             "std::" + name +
                 " is a node-per-element container — on the wire hot "
                 "path use a flat vector / slab keyed by index"});
      }
    } else if (i + 3 < toks.size() && is_punct(toks[i + 1], ".") &&
               toks[i + 2].kind == TokKind::kIdent &&
               kBytesGrowth.count(toks[i + 2].text) != 0 &&
               is_punct(toks[i + 3], "(") &&
               is_bytes_name(t.text, t.line)) {
      out.push_back(
          {"hotpath-bytes-growth", rel_path, t.line,
           "'" + t.text + "." + toks[i + 2].text +
               "' grows a flat Bytes buffer on the wire hot path — "
               "render into a pooled BlockStream "
               "(common/block_stream.hpp) so message bytes recycle "
               "through the block freelist; annotate documented "
               "heap-fallback copy-outs with hcm:allow"});
    } else if ((t.text == "shard_registry" ||
                (t.text == "global" && i >= 2 &&
                 is_ident(toks[i - 2], "Registry") &&
                 is_punct(toks[i - 1], "::"))) &&
               i + 4 < toks.size() && is_punct(toks[i + 1], "(") &&
               is_punct(toks[i + 2], ")") && is_punct(toks[i + 3], ".") &&
               toks[i + 4].kind == TokKind::kIdent &&
               kRegistryLookups.count(toks[i + 4].text) != 0) {
      out.push_back(
          {"obs-hotpath-lookup", rel_path, t.line,
           "registry lookup '" + toks[i + 4].text +
               "' on the wire hot path — metric handles must be "
               "resolved once at setup and cached as references "
               "(docs/OBSERVABILITY.md), not looked up per call"});
    }
  }
  return out;
}

// --- shard readiness ----------------------------------------------------

namespace {

struct ShardCtx {
  const std::string* path;
  Findings* out;
};

bool head_has(const TokenStream& ts, std::size_t b, std::size_t e,
              std::string_view word) {
  for (std::size_t i = b; i < e; ++i) {
    if (is_ident(ts.tokens[i], word)) return true;
  }
  return false;
}

void shard_on_statement(void* raw, const TokenStream& ts, std::size_t b,
                        std::size_t e, bool ns_scope, bool fn_scope) {
  auto* ctx = static_cast<ShardCtx*>(raw);
  const auto& toks = ts.tokens;
  if (b >= e) return;
  const Token& first = toks[b];
  if (first.kind != TokKind::kIdent) return;

  bool is_const = head_has(ts, b, e, "const") ||
                  head_has(ts, b, e, "constexpr") ||
                  head_has(ts, b, e, "constinit");
  bool is_atomic = head_has(ts, b, e, "atomic") ||
                   head_has(ts, b, e, "atomic_flag");

  if (fn_scope) {
    if (first.text != "static") return;
    if (is_const || is_atomic) return;
    (*ctx->out).push_back(
        {"shard-static-local", *ctx->path, first.line,
         "mutable function-local static — hidden cross-shard shared "
         "state; make it per-shard, const, or std::atomic before the "
         "sharded kernel lands"});
    return;
  }
  if (!ns_scope) return;

  // Namespace scope: find a variable definition shape, skipping
  // everything declaration-like that isn't one.
  static const std::set<std::string> kSkipFirst = {
      "using",   "typedef",  "template", "friend",   "static_assert",
      "namespace", "class",  "struct",   "union",    "enum",
      "extern",  "asm",      "concept",  "goto",     "return",
      "if",      "for",      "while",    "switch",   "do",
      "else",    "try",      "catch",    "case",     "default",
      "public",  "private",  "protected", "operator", "thread_local"};
  if (kSkipFirst.count(first.text) != 0) return;
  if (is_const || is_atomic) return;

  // '(' before any '=' (both outside template angles) means a function
  // declaration/definition head (params, ctor-init) — not a variable.
  int angle = 0;
  std::size_t first_paren = e;
  std::size_t first_eq = e;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "<") ++angle;
    if (t.text == ">" && angle > 0) --angle;
    if (t.text == ">>" && angle > 0) angle = angle >= 2 ? angle - 2 : 0;
    if (angle != 0) continue;
    if (t.text == "(" && first_paren == e) first_paren = i;
    if (t.text == "=" && first_eq == e) first_eq = i;
  }
  if (first_paren < first_eq) return;  // function-shaped

  bool braced_init = e < toks.size() && is_punct(toks[e], "{") &&
                     toks[e - 1].kind == TokKind::kIdent;
  bool assigned = first_eq < e;
  bool plain_decl = false;
  if (!assigned && !braced_init) {
    // `Type name;` — at least two identifiers, the last token an
    // identifier, no parens anywhere.
    std::size_t idents = 0;
    for (std::size_t i = b; i < e; ++i) {
      if (toks[i].kind == TokKind::kIdent) ++idents;
    }
    plain_decl = idents >= 2 && first_paren == e &&
                 toks[e - 1].kind == TokKind::kIdent;
  }
  if (!assigned && !braced_init && !plain_decl) return;

  (*ctx->out).push_back(
      {"shard-mutable-global", *ctx->path, first.line,
       "mutable namespace-scope state — every shard would share it; "
       "make it per-shard, const, or std::atomic before the sharded "
       "kernel lands"});
}

}  // namespace

Findings shard_check(const std::string& rel_path, const TokenStream& ts) {
  Findings out;
  ShardCtx ctx{&rel_path, &out};
  ScopeVisitor visitor;
  visitor.on_statement = &shard_on_statement;
  visitor.ctx = &ctx;
  walk_scopes(ts, visitor);
  return out;
}

// --- Status discipline --------------------------------------------------

bool status_decls_covered(const std::string& rel_path) {
  const bool header = rel_path.size() > 4 &&
                      rel_path.compare(rel_path.size() - 4, 4, ".hpp") == 0;
  return header && (rel_path.rfind("src/common/", 0) == 0 ||
                    rel_path.rfind("src/core/", 0) == 0);
}

namespace {

// Start of the statement holding token `i`: the walk back stops after
// `;`, a brace or a preprocessor line and, for declarations, a lone `:`
// (access specifier; `::` is its own token). Calls do not stop at `:`,
// so a ternary's `?` stays visible in their prefix.
std::size_t statement_begin(const std::vector<Token>& toks, std::size_t i,
                            bool stop_at_colon) {
  for (; i > 0; --i) {
    const Token& t = toks[i - 1];
    if (t.kind == TokKind::kDirective) break;
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == ";" || t.text == "{" || t.text == "}" ||
        (stop_at_colon && t.text == ":")) {
      break;
    }
  }
  return i;
}

// Calls fn(name, type_index, statement_begin) for every declaration of
// a function returning Status or Result<...> by value. Member
// variables, parameters, constructors, qualified uses and by-reference
// returns are not `Type name (` and fall out; so do statements whose
// prefix assigns, calls, templates or returns.
template <typename Fn>
void for_each_status_decl(const TokenStream& ts, Fn&& fn) {
  const auto& toks = ts.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "Status") && !is_ident(toks[i], "Result")) continue;
    std::size_t name = i + 1;
    if (toks[i].text == "Result") {
      if (name >= toks.size() || !is_punct(toks[name], "<")) continue;
      int depth = 0;
      for (; name < toks.size(); ++name) {
        if (is_punct(toks[name], "<")) ++depth;
        if (is_punct(toks[name], ">")) --depth;
        if (is_punct(toks[name], ">>")) depth -= 2;
        if (depth <= 0) break;
      }
      ++name;
    }
    if (name + 1 >= toks.size() || toks[name].kind != TokKind::kIdent ||
        toks[name].text == "operator" || !is_punct(toks[name + 1], "(")) {
      continue;
    }
    const std::size_t b = statement_begin(toks, i, /*stop_at_colon=*/true);
    bool decl = true;
    for (std::size_t j = b; j < i && decl; ++j) {
      const Token& t = toks[j];
      if (t.kind == TokKind::kIdent) {
        decl = t.text != "return" && t.text != "using" &&
               t.text != "typedef" && t.text != "new";
      } else if (t.kind == TokKind::kPunct) {
        decl = t.text.find_first_of("=(<") == std::string::npos;
      }
    }
    if (decl) fn(toks[name].text, i, b);
  }
}

}  // namespace

std::set<std::string> status_functions(const TokenStream& ts) {
  std::set<std::string> out;
  for_each_status_decl(ts, [&](const std::string& name, std::size_t,
                               std::size_t) { out.insert(name); });
  return out;
}

Findings nodiscard_check(const std::string& rel_path, const TokenStream& ts) {
  Findings out;
  for_each_status_decl(ts, [&](const std::string& name, std::size_t type,
                               std::size_t b) {
    if (head_has(ts, b, type, "nodiscard")) return;
    out.push_back({"missing-nodiscard", rel_path, ts.tokens[type].line,
                   "function '" + name +
                       "' returns Status/Result but is not [[nodiscard]]"});
  });
  return out;
}

Findings discarded_status_check(const std::string& rel_path,
                                const TokenStream& ts,
                                const std::set<std::string>& fns) {
  Findings out;
  const auto& toks = ts.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || fns.count(toks[i].text) == 0 ||
        !is_punct(toks[i + 1], "(")) {
      continue;
    }
    // The statement must be nothing but `receiver-chain fn(...)`: a
    // literal, any operator other than `.`, `->` and `::`, or a
    // return/throw/case keyword in the prefix means the result is used.
    const std::size_t b = statement_begin(toks, i, /*stop_at_colon=*/false);
    bool plain = true;
    for (std::size_t j = b; j < i && plain; ++j) {
      const Token& t = toks[j];
      if (t.kind == TokKind::kIdent) {
        plain = t.text != "return" && t.text != "throw" &&
                t.text != "case" && t.text != "co_return";
      } else if (t.kind == TokKind::kPunct) {
        plain = t.text.find_first_not_of(".:->") == std::string::npos;
      } else {
        plain = t.kind == TokKind::kNumber;
      }
    }
    // A receiver chain ends in punctuation; an identifier directly
    // before the name makes this a declaration, not a call.
    if (!plain || (i > b && toks[i - 1].kind != TokKind::kPunct)) continue;
    // The call must end the statement: matching `)` followed by `;`.
    int depth = 0;
    std::size_t close = i + 1;
    for (; close < toks.size(); ++close) {
      if (is_punct(toks[close], "(")) ++depth;
      if (is_punct(toks[close], ")") && --depth == 0) break;
    }
    if (close + 1 >= toks.size() || !is_punct(toks[close + 1], ";")) continue;
    out.push_back({"discarded-status", rel_path, toks[i].line,
                   "result of '" + toks[i].text +
                       "' (returns Status/Result) is discarded; handle it "
                       "or cast to (void) with a reason"});
  }
  return out;
}

// --- Value building ------------------------------------------------------

Findings init_list_move_check(const std::string& rel_path,
                              const TokenStream& ts) {
  Findings out;
  const auto& toks = ts.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "ValueMap") && !is_ident(toks[i], "ValueList") &&
        !is_ident(toks[i], "NamedValues")) {
      continue;
    }
    std::size_t open = i + 1;
    if (open < toks.size() && toks[open].kind == TokKind::kIdent) ++open;
    if (open >= toks.size() || !is_punct(toks[open], "{")) continue;
    // Scan to the matching brace; nested lists are covered by this
    // scan, so resume after it (one finding per move).
    int depth = 0;
    std::size_t j = open;
    for (; j < toks.size(); ++j) {
      if (is_punct(toks[j], "{")) ++depth;
      if (is_punct(toks[j], "}") && --depth == 0) break;
      if (is_ident(toks[j], "std") && j + 3 < toks.size() &&
          is_punct(toks[j + 1], "::") && is_ident(toks[j + 2], "move") &&
          is_punct(toks[j + 3], "(")) {
        out.push_back(
            {"init-list-move", rel_path, toks[j].line,
             "std::move inside a braced " + toks[i].text +
                 " list copies: initializer_list elements are const, so "
                 "the moved tree is deep-copied — build the container "
                 "with emplace/emplace_back"});
      }
    }
    i = j;
  }
  return out;
}

}  // namespace hcm::analyze
