// Fixture self-tests for the hcm_analyze passes: known-bad snippets
// must produce exactly the documented rule ids at the expected
// file:line, known-good snippets must stay silent, and the --json
// schema must round-trip. These pin the analyzer's heuristics so a
// lexer or scope-walker change that silently weakens a gate fails here
// rather than in a later PR's review.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "hcm_analyze/analysis.hpp"
#include "hcm_analyze/passes.hpp"
#include "hcm_analyze/token_stream.hpp"

namespace hcm::analyze {
namespace {

int count_rule(const Findings& fs, const std::string& rule) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

const Finding* find_rule(const Findings& fs, const std::string& rule) {
  for (const Finding& f : fs) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

// --- lexer --------------------------------------------------------------

TEST(TokenStreamTest, RawStringsCollapseToOneToken) {
  // The classic trap: code-looking text (including a fake delimiter and
  // a quote) inside a raw string must not leak tokens.
  TokenStream ts = lex(
      "const char* x = R\"xml(<a b=\"new std::map<int,int>\">)xml\";\n"
      "int after = 1;\n");
  for (const Token& t : ts.tokens) {
    EXPECT_NE(t.text, "new") << "raw string contents leaked into tokens";
    EXPECT_NE(t.text, "map");
  }
  const Token* after = nullptr;
  for (const Token& t : ts.tokens) {
    if (t.text == "after") after = &t;
  }
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->line, 2);  // newline inside the literal still counts
}

TEST(TokenStreamTest, CommentsAndStringsProduceNoIdentTokens) {
  TokenStream ts = lex(
      "// new in a comment\n"
      "/* make_shared in a block */\n"
      "const char* s = \"std::function\";\n"
      "char c = 'n';\n");
  for (const Token& t : ts.tokens) {
    EXPECT_NE(t.text, "new");
    EXPECT_NE(t.text, "make_shared");
    EXPECT_NE(t.text, "function");
  }
}

TEST(TokenStreamTest, AllowNotesAreExtracted) {
  TokenStream ts = lex(
      "// hcm:allow(shard-mutable-global): startup-only config\n"
      "int g_flag = 0;\n");
  ASSERT_EQ(ts.allows.size(), 1u);
  EXPECT_EQ(ts.allows[0].line, 1);
  ASSERT_EQ(ts.allows[0].rules.size(), 1u);
  EXPECT_EQ(ts.allows[0].rules[0], "shard-mutable-global");
  EXPECT_EQ(ts.allows[0].reason, "startup-only config");
  EXPECT_FALSE(ts.allows[0].malformed);
}

TEST(TokenStreamTest, AllowWithoutReasonIsMalformed) {
  TokenStream ts = lex("// hcm:allow(shard-mutable-global)\nint g = 0;\n");
  ASSERT_EQ(ts.allows.size(), 1u);
  EXPECT_TRUE(ts.allows[0].malformed);
}

TEST(TokenStreamTest, ProseMentionOfAllowIsNotAnAnnotation) {
  // Comments that merely talk about the escape hatch (like this test
  // suite, or the analyzer's own docs) must not register as allows.
  TokenStream ts =
      lex("// the `hcm:allow(<rule>): reason` syntax is documented\n"
          "int x = 0;\n");
  EXPECT_TRUE(ts.allows.empty());
}

TEST(TokenStreamTest, FunctionRangesCoverMemberAndFree) {
  auto ranges = function_ranges(lex(
      "namespace n {\n"            // 1
      "int free_fn(int a) {\n"     // 2
      "  return a;\n"              // 3
      "}\n"                        // 4
      "struct S {\n"               // 5
      "  void method() {\n"        // 6
      "    int x = 0;\n"           // 7
      "    (void)x;\n"             // 8
      "  }\n"                      // 9
      "};\n"                       // 10
      "void S2::out_of_line() {}\n"  // 11
      "}\n"));
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].name, "free_fn");
  EXPECT_EQ(ranges[0].begin_line, 2);
  EXPECT_EQ(ranges[0].end_line, 4);
  EXPECT_EQ(ranges[1].qualified, "S::method");
  EXPECT_EQ(ranges[1].begin_line, 6);
  EXPECT_EQ(ranges[1].end_line, 9);
  EXPECT_EQ(ranges[2].qualified, "S2::out_of_line");
}

// --- layering -----------------------------------------------------------

TEST(LayeringTest, UpwardIncludeIsFlaggedWithFileAndLine) {
  TokenStream ts = lex(
      "#include \"net/stream.hpp\"\n"
      "#include \"http/client.hpp\"\n");
  Findings fs = layering_check_file("src/net/stream.cpp", ts,
                                    default_layers());
  ASSERT_EQ(count_rule(fs, "layering-upward"), 1) << format_findings(fs);
  const Finding* f = find_rule(fs, "layering-upward");
  EXPECT_EQ(f->file, "src/net/stream.cpp");
  EXPECT_EQ(f->line, 2);
}

TEST(LayeringTest, DownwardSelfAndSystemIncludesPass) {
  TokenStream ts = lex(
      "#include <vector>\n"
      "#include \"http/message.hpp\"\n"   // self
      "#include \"net/stream.hpp\"\n"     // downward
      "#include \"common/status.hpp\"\n");
  Findings fs = layering_check_file("src/http/message.cpp", ts,
                                    default_layers());
  EXPECT_TRUE(fs.empty()) << format_findings(fs);
}

TEST(LayeringTest, PeerIncludeIsLateral) {
  TokenStream ts = lex("#include \"upnp/upnp.hpp\"\n");
  Findings fs =
      layering_check_file("src/havi/havi.cpp", ts, default_layers());
  ASSERT_EQ(count_rule(fs, "layering-lateral"), 1) << format_findings(fs);
  EXPECT_EQ(find_rule(fs, "layering-lateral")->line, 1);
}

TEST(LayeringTest, UnrankedModuleIsFlagged) {
  Findings fs = layering_check_file("src/newmod/a.cpp", lex("int x;\n"),
                                    default_layers());
  EXPECT_EQ(count_rule(fs, "layering-unknown-include"), 1)
      << format_findings(fs);
}

TEST(LayeringTest, IncludeCycleIsDetected) {
  std::map<std::string, std::vector<std::string>> graph = {
      {"src/a/a.hpp", {"src/b/b.hpp"}},
      {"src/b/b.hpp", {"src/c/c.hpp"}},
      {"src/c/c.hpp", {"src/a/a.hpp"}},
      {"src/d/d.hpp", {"src/a/a.hpp"}},  // feeds in, not on the cycle
  };
  Findings fs = layering_check_cycles(graph);
  ASSERT_EQ(count_rule(fs, "layering-cycle"), 1) << format_findings(fs);
  const Finding* f = find_rule(fs, "layering-cycle");
  EXPECT_NE(f->message.find("src/a/a.hpp"), std::string::npos);
  EXPECT_NE(f->message.find("src/c/c.hpp"), std::string::npos);
}

TEST(LayeringTest, AcyclicGraphIsClean) {
  std::map<std::string, std::vector<std::string>> graph = {
      {"src/a/a.hpp", {"src/b/b.hpp", "src/c/c.hpp"}},
      {"src/b/b.hpp", {"src/c/c.hpp"}},
      {"src/c/c.hpp", {}},
  };
  EXPECT_TRUE(layering_check_cycles(graph).empty());
}

TEST(LayeringTest, StoreRanksBetweenCommonAndSoap) {
  // The durable store backs soap's registry: store may reach down to
  // common, soap may reach down to store, and store must not climb the
  // stack (not even to sim — durability timestamps come from callers).
  const LayerConfig layers = default_layers();
  ASSERT_EQ(layers.rank.count("store"), 1u);
  EXPECT_GT(layers.rank.at("store"), layers.rank.at("common"));
  EXPECT_LT(layers.rank.at("store"), layers.rank.at("soap"));

  Findings fs = layering_check_file(
      "src/store/record_log.cpp",
      lex("#include \"common/status.hpp\"\n"
          "#include \"store/codec.hpp\"\n"),
      layers);
  EXPECT_TRUE(fs.empty()) << format_findings(fs);

  fs = layering_check_file("src/store/vsr_store.cpp",
                           lex("#include \"soap/uddi.hpp\"\n"), layers);
  EXPECT_EQ(count_rule(fs, "layering-upward"), 1) << format_findings(fs);

  fs = layering_check_file("src/soap/uddi.cpp",
                           lex("#include \"store/vsr_store.hpp\"\n"), layers);
  EXPECT_TRUE(fs.empty()) << format_findings(fs);

  // sim is a peer: the store must not include it either.
  fs = layering_check_file("src/store/vsr_store.cpp",
                           lex("#include \"sim/scheduler.hpp\"\n"), layers);
  EXPECT_EQ(count_rule(fs, "layering-lateral"), 1) << format_findings(fs);
}

// --- determinism --------------------------------------------------------

TEST(DeterminismTest, CoverageIncludesStore) {
  // Replay and compaction must be pure functions of the on-disk bytes,
  // so src/store sits inside the determinism gate with sim and core.
  EXPECT_TRUE(determinism_covered("src/sim/scheduler.cpp"));
  EXPECT_TRUE(determinism_covered("src/core/vsr.cpp"));
  EXPECT_TRUE(determinism_covered("src/store/record_log.cpp"));
  EXPECT_TRUE(determinism_covered("src/store/vsr_store.hpp"));
  EXPECT_FALSE(determinism_covered("src/http/client.cpp"));
  EXPECT_FALSE(determinism_covered("tests/store/record_log_test.cpp"));
}

TEST(DeterminismTest, WallClockInStoreIsFlagged) {
  // A clock read during replay would make the recovered epoch/seq (and
  // the log's byte stream) depend on when recovery ran.
  Findings fs = determinism_check(
      "src/store/record_log.cpp",
      lex("void stamp() { timeval tv; gettimeofday(&tv, nullptr); }\n"));
  EXPECT_EQ(count_rule(fs, "determinism-wallclock"), 1)
      << format_findings(fs);
}

TEST(DeterminismTest, WallClockReadIsFlagged) {
  TokenStream ts = lex(
      "void f() {\n"
      "  auto t = std::chrono::system_clock::now();\n"
      "  (void)t;\n"
      "}\n");
  Findings fs = determinism_check("src/sim/f.cpp", ts);
  ASSERT_EQ(count_rule(fs, "determinism-wallclock"), 1)
      << format_findings(fs);
  EXPECT_EQ(find_rule(fs, "determinism-wallclock")->line, 2);
}

TEST(DeterminismTest, AmbientRandomnessIsFlagged) {
  Findings fs = determinism_check(
      "src/core/f.cpp", lex("int f() { return rand(); }\n"));
  EXPECT_EQ(count_rule(fs, "determinism-random"), 1) << format_findings(fs);

  fs = determinism_check("src/core/g.cpp",
                         lex("std::random_device rd;\n"));
  EXPECT_GE(count_rule(fs, "determinism-random"), 1) << format_findings(fs);
}

TEST(DeterminismTest, UnseededEngineFlaggedSeededPasses) {
  Findings bad = determinism_check("src/sim/a.cpp",
                                   lex("std::mt19937_64 rng;\n"));
  EXPECT_EQ(count_rule(bad, "determinism-random"), 1)
      << format_findings(bad);

  // The scheduler's idiom: fixed-seed member init must pass.
  Findings good = determinism_check(
      "src/sim/b.cpp", lex("std::mt19937_64 rng_{0x5eed5eedULL};\n"));
  EXPECT_TRUE(good.empty()) << format_findings(good);
}

TEST(DeterminismTest, UnorderedIterationIsFlagged) {
  TokenStream ts = lex(
      "#include <unordered_map>\n"
      "void f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  for (const auto& [k, v] : m) { (void)k; (void)v; }\n"
      "}\n");
  Findings fs = determinism_check("src/sim/f.cpp", ts);
  ASSERT_EQ(count_rule(fs, "determinism-unordered-iter"), 1)
      << format_findings(fs);
  EXPECT_EQ(find_rule(fs, "determinism-unordered-iter")->line, 4);
}

TEST(DeterminismTest, OrderedIterationPasses) {
  TokenStream ts = lex(
      "void f() {\n"
      "  std::map<int, int> m;\n"
      "  for (const auto& [k, v] : m) { (void)k; (void)v; }\n"
      "}\n");
  EXPECT_TRUE(determinism_check("src/sim/f.cpp", ts).empty());
}

// --- hot path -----------------------------------------------------------

TEST(HotpathTest, ManifestParsesFnLists) {
  auto scopes = parse_manifest(
      "# comment\n"
      "\n"
      "src/xml/xml.cpp fn=Writer,PullParser\n"
      "src/soap/envelope.cpp\n");
  ASSERT_EQ(scopes.size(), 2u);
  EXPECT_EQ(scopes[0].path, "src/xml/xml.cpp");
  ASSERT_EQ(scopes[0].fns.size(), 2u);
  EXPECT_EQ(scopes[0].fns[1], "PullParser");
  EXPECT_TRUE(scopes[1].fns.empty());
}

TEST(HotpathTest, AllocationAndContainerRulesFire) {
  TokenStream ts = lex(
      "void hot() {\n"                               // 1
      "  auto* p = new int(1);\n"                    // 2
      "  auto q = std::make_shared<int>(2);\n"       // 3
      "  std::map<int, int> m;\n"                    // 4
      "  std::function<void()> cb;\n"                // 5
      "  (void)p; (void)q; (void)m; (void)cb;\n"     // 6
      "}\n");
  Findings fs = hotpath_check("src/net/f.cpp", ts, HotScope{"src/net/f.cpp", {}});
  EXPECT_EQ(count_rule(fs, "hotpath-new"), 1) << format_findings(fs);
  EXPECT_EQ(count_rule(fs, "hotpath-make"), 1);
  EXPECT_EQ(count_rule(fs, "hotpath-node-container"), 1);
  EXPECT_EQ(count_rule(fs, "hotpath-std-function"), 1);
  EXPECT_EQ(find_rule(fs, "hotpath-new")->line, 2);
  EXPECT_EQ(find_rule(fs, "hotpath-std-function")->line, 5);
}

TEST(HotpathTest, FnScopingLimitsTheSweep) {
  TokenStream ts = lex(
      "void cold_setup() {\n"
      "  auto* a = new int(1);\n"  // outside the manifest scope
      "  (void)a;\n"
      "}\n"
      "void hot_send() {\n"
      "  auto* b = new int(2);\n"  // line 6, inside
      "  (void)b;\n"
      "}\n");
  Findings fs = hotpath_check("src/net/f.cpp", ts,
                              HotScope{"src/net/f.cpp", {"hot_send"}});
  ASSERT_EQ(count_rule(fs, "hotpath-new"), 1) << format_findings(fs);
  EXPECT_EQ(find_rule(fs, "hotpath-new")->line, 6);
}

TEST(HotpathTest, RegistryLookupIsFlagged) {
  TokenStream ts = lex(
      "void hot() {\n"                                              // 1
      "  obs::Registry::global().counter(\"x\").inc();\n"           // 2
      "  obs::shard_registry().histogram(\"y\").observe(1);\n"      // 3
      "  auto s = obs::shard_registry().unique_scope(\"z\");\n"     // 4
      "  (void)s;\n"                                                // 5
      "}\n");
  Findings fs =
      hotpath_check("src/net/f.cpp", ts, HotScope{"src/net/f.cpp", {}});
  ASSERT_EQ(count_rule(fs, "obs-hotpath-lookup"), 3) << format_findings(fs);
  EXPECT_EQ(find_rule(fs, "obs-hotpath-lookup")->line, 2);
}

TEST(HotpathTest, CachedHandleMutationIsNotALookup) {
  // Mutating through a cached reference — the idiom the rule demands —
  // must stay silent, as must unrelated global()/registry() calls that
  // don't chain into a name lookup.
  TokenStream ts = lex(
      "void hot() {\n"
      "  requests_.inc();\n"
      "  latency_us_.observe(7);\n"
      "  auto& reg = obs::shard_registry();\n"
      "  Tracer::global().clear();\n"
      "  (void)reg;\n"
      "}\n");
  Findings fs =
      hotpath_check("src/net/f.cpp", ts, HotScope{"src/net/f.cpp", {}});
  EXPECT_EQ(count_rule(fs, "obs-hotpath-lookup"), 0) << format_findings(fs);
}

TEST(HotpathTest, RegistryLookupRespectsFnScope) {
  TokenStream ts = lex(
      "void cold_setup() {\n"
      "  obs::shard_registry().counter(\"a\").inc();\n"  // outside scope
      "}\n"
      "void hot_send() {\n"
      "  obs::shard_registry().counter(\"b\").inc();\n"  // line 5, inside
      "}\n");
  Findings fs = hotpath_check("src/net/f.cpp", ts,
                              HotScope{"src/net/f.cpp", {"hot_send"}});
  ASSERT_EQ(count_rule(fs, "obs-hotpath-lookup"), 1) << format_findings(fs);
  EXPECT_EQ(find_rule(fs, "obs-hotpath-lookup")->line, 5);
}

TEST(HotpathTest, ClassPatternCoversAllMembers) {
  TokenStream ts = lex(
      "void Writer::open() { auto* x = new int(0); (void)x; }\n"
      "void Other::open() { auto* y = new int(1); (void)y; }\n");
  Findings fs = hotpath_check("src/xml/f.cpp", ts,
                              HotScope{"src/xml/f.cpp", {"Writer"}});
  ASSERT_EQ(count_rule(fs, "hotpath-new"), 1) << format_findings(fs);
  EXPECT_EQ(find_rule(fs, "hotpath-new")->line, 1);
}

TEST(HotpathTest, BytesGrowthIsFlagged) {
  TokenStream ts = lex(
      "void hot() {\n"                 // 1
      "  Bytes out;\n"                 // 2
      "  out.reserve(512);\n"          // 3
      "  out.append(p, n);\n"          // 4
      "  out.resize(out.size() * 2);\n"  // 5
      "  (void)out;\n"                 // 6
      "}\n");
  Findings fs =
      hotpath_check("src/net/f.cpp", ts, HotScope{"src/net/f.cpp", {}});
  ASSERT_EQ(count_rule(fs, "hotpath-bytes-growth"), 3) << format_findings(fs);
  EXPECT_EQ(find_rule(fs, "hotpath-bytes-growth")->line, 3);
}

TEST(HotpathTest, BytesGrowthIgnoresNonBytesNamesAndScope) {
  // `buf` is a BlockStream, not a Bytes — its append is the pooled
  // idiom the rule steers toward; and a Bytes growing outside the
  // manifest's fn scope is setup/teardown, not wire traffic.
  TokenStream ts = lex(
      "void hot_send() {\n"
      "  BlockStream buf;\n"
      "  buf.append(p, n);\n"
      "}\n"
      "void cold_setup() {\n"
      "  Bytes scratch;\n"
      "  scratch.reserve(64);\n"
      "}\n");
  Findings fs = hotpath_check("src/net/f.cpp", ts,
                              HotScope{"src/net/f.cpp", {"hot_send"}});
  EXPECT_EQ(count_rule(fs, "hotpath-bytes-growth"), 0)
      << format_findings(fs);
}

// --- shard readiness ----------------------------------------------------

TEST(ShardTest, MutableGlobalIsFlagged) {
  TokenStream ts = lex(
      "namespace hcm {\n"
      "namespace {\n"
      "int g_counter = 0;\n"  // line 3
      "}\n"
      "}\n");
  Findings fs = shard_check("src/x/a.cpp", ts);
  ASSERT_EQ(count_rule(fs, "shard-mutable-global"), 1)
      << format_findings(fs);
  EXPECT_EQ(find_rule(fs, "shard-mutable-global")->line, 3);
}

TEST(ShardTest, ConstAtomicAndLocalsPass) {
  TokenStream ts = lex(
      "namespace hcm {\n"
      "const int kLimit = 8;\n"
      "constexpr int kOther = 9;\n"
      "std::atomic<int> g_ok{0};\n"
      "void f() { int local = 0; (void)local; }\n"
      "int g() { return kLimit; }\n"
      "}\n");
  Findings fs = shard_check("src/x/a.cpp", ts);
  EXPECT_TRUE(fs.empty()) << format_findings(fs);
}

TEST(ShardTest, MutableStaticLocalIsFlagged) {
  TokenStream ts = lex(
      "int next_id() {\n"
      "  static int id = 0;\n"  // line 2
      "  return ++id;\n"
      "}\n"
      "const char* name() {\n"
      "  static const char* n = \"ok\";\n"  // const: passes
      "  return n;\n"
      "}\n");
  Findings fs = shard_check("src/x/a.cpp", ts);
  ASSERT_EQ(count_rule(fs, "shard-static-local"), 1) << format_findings(fs);
  EXPECT_EQ(find_rule(fs, "shard-static-local")->line, 2);
}

TEST(ShardTest, IncrementedStaticAtomicIsACounter) {
  TokenStream ts = lex(
      "namespace hcm {\n"
      "std::atomic<std::uint64_t> g_epoch{1};\n"     // line 2
      "std::atomic<int> g_bumped = 0;\n"             // line 3
      "std::atomic<bool> g_enabled{true};\n"         // line 4: loads only
      "std::uint64_t next() { return g_epoch.fetch_add(1); }\n"
      "void bump() { ++g_bumped; }\n"
      "int cookie() {\n"
      "  static std::atomic<int> s_cookie{0};\n"     // line 8
      "  return s_cookie += 1;\n"
      "}\n"
      "bool on() { return g_enabled.load(); }\n"
      "}\n");
  Findings fs = shard_check("src/x/a.cpp", ts);
  ASSERT_EQ(count_rule(fs, "static-atomic-counter"), 3) << format_findings(fs);
  std::set<int> lines;
  for (const Finding& f : fs) lines.insert(f.line);
  EXPECT_EQ(lines, (std::set<int>{2, 3, 8}));
  EXPECT_EQ(count_rule(fs, "shard-mutable-global"), 0);
}

TEST(ShardTest, LoadedOnlyStaticAtomicIsNotACounter) {
  TokenStream ts = lex(
      "namespace hcm {\n"
      "std::atomic<int> g_level{0};\n"
      "void set(int v) { g_level.store(v); }\n"
      "int get() { return g_level.load(); }\n"
      "struct S { std::atomic<int> n_{0}; void inc() { ++n_; } };\n"
      "struct Stats { int g_level = 0; };\n"  // same name, not the atomic
      "void tally(Stats& s, Stats* p) { s.g_level++; p->g_level += 2; }\n"
      "}\n");
  Findings fs = shard_check("src/x/a.cpp", ts);
  EXPECT_TRUE(fs.empty()) << format_findings(fs);
}

// --- Status discipline --------------------------------------------------

TEST(SourceScanTest, StripPreservesOffsetsAndRemovesLiterals) {
  // Status-shaped text in a comment or a string is not a declaration,
  // and the lexer keeps line numbers exact past both.
  auto fs = nodiscard_check(
      "src/core/f.hpp",
      lex("int a; // Status start();\n"
          "const char* s = \"Status x();\";\n"
          "Status real();\n"));
  ASSERT_EQ(fs.size(), 1u) << format_findings(fs);
  EXPECT_EQ(fs[0].rule, "missing-nodiscard");
  EXPECT_EQ(fs[0].file, "src/core/f.hpp");
  EXPECT_EQ(fs[0].line, 3);
}

// Regression: a line-based scanner that did not understand raw string
// literals saw the `Status name();` inside R"(...)" and reported a
// phantom missing-nodiscard finding.
TEST(SourceScanTest, RawStringContentsAreBlanked) {
  TokenStream ts = lex(
      "const char* fixture = R\"xml(\n"
      "  Status not_a_decl();\n"
      ")xml\";\n"
      "Status after();\n");
  EXPECT_EQ(status_functions(ts), std::set<std::string>{"after"});
  auto fs = nodiscard_check("src/common/f.hpp", ts);
  ASSERT_EQ(fs.size(), 1u) << format_findings(fs);
  EXPECT_EQ(fs[0].line, 4);
}

TEST(SourceScanTest, MissingNodiscardIsFlagged) {
  auto fs = nodiscard_check("src/core/f.hpp",
                            lex("struct S {\n"
                                "  Status start();\n"
                                "};\n"));
  ASSERT_EQ(fs.size(), 1u) << format_findings(fs);
  EXPECT_EQ(fs[0].rule, "missing-nodiscard");
  EXPECT_EQ(fs[0].file, "src/core/f.hpp");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_NE(fs[0].message.find("'start'"), std::string::npos);
}

TEST(SourceScanTest, AnnotatedDeclarationsPass) {
  auto fs = nodiscard_check(
      "src/core/f.hpp",
      lex("struct S {\n"
          " public:\n"
          "  [[nodiscard]] Status start();\n"
          "  [[nodiscard]] Result<int> count() const;\n"
          "  [[nodiscard]] Result<std::vector<int>> list();\n"
          "  [[nodiscard]] virtual Status stop() = 0;\n"
          "};\n"));
  EXPECT_TRUE(fs.empty()) << format_findings(fs);
}

TEST(SourceScanTest, NonDeclarationsAreIgnored) {
  auto fs = nodiscard_check(
      "src/core/f.hpp",
      lex("Status status_;\n"                       // member variable
          "Status s;\n"                             // local
          "void f(const Status& s);\n"              // parameter
          "Status() = default;\n"                   // constructor
          "const Status& last() const;\n"           // by-reference return
          "using Fn = std::function<void(Result<int>)>;\n"
          "int g() { return Status::ok().is_ok(); }\n"));
  EXPECT_TRUE(fs.empty()) << format_findings(fs);
}

TEST(SourceScanTest, CollectFindsStatusReturningFunctions) {
  auto fns = status_functions(
      lex("struct S { [[nodiscard]] Status start(); };\n"
          "[[nodiscard]] Result<int> parse(const std::string&);\n"
          "void unrelated();\n"));
  EXPECT_EQ(fns, (std::set<std::string>{"parse", "start"}));
}

TEST(SourceScanTest, DiscardedCallIsFlagged) {
  auto fs = discarded_status_check("src/http/f.cpp",
                                   lex("void f(Server& s) {\n"
                                       "  s.start();\n"
                                       "  ptr->inner.start();\n"
                                       "}\n"),
                                   {"start"});
  ASSERT_EQ(count_rule(fs, "discarded-status"), 2) << format_findings(fs);
  EXPECT_EQ(fs[0].file, "src/http/f.cpp");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[1].line, 3);
}

TEST(SourceScanTest, HandledCallsAreNotFlagged) {
  auto fs = discarded_status_check(
      "src/http/f.cpp",
      lex("void f(Server& s) {\n"
          "  Status st = s.start();\n"
          "  (void)s.start();\n"
          "  if (s.start().is_ok()) {}\n"
          "  return s.start();\n"
          "  EXPECT_TRUE(s.start().is_ok());\n"
          "  auto chained = s.start().to_string();\n"
          "  Status t = ready ? Status::ok() : s.start();\n"
          "  Status start();\n"
          "}\n"),
      {"start"});
  EXPECT_TRUE(fs.empty()) << format_findings(fs);
}

TEST(SourceScanTest, CoverageIsCommonAndCoreHeaders) {
  EXPECT_TRUE(status_decls_covered("src/common/status.hpp"));
  EXPECT_TRUE(status_decls_covered("src/core/adapters/x10_adapter.hpp"));
  EXPECT_FALSE(status_decls_covered("src/core/vsg.cpp"));
  EXPECT_FALSE(status_decls_covered("src/http/server.hpp"));
  EXPECT_FALSE(status_decls_covered("tools/hcm_lint/lint.hpp"));
}

// --- Value building -------------------------------------------------------

TEST(InitListMoveTest, MoveInsideBracedValueListIsFlagged) {
  auto fs = init_list_move_check(
      "src/common/f.cpp",
      lex("Value f(ValueList params, ValueMap attrs, Value v) {\n"
          "  ValueMap out{{\"attrs\", Value(attrs)}};\n"
          "  Value keep(attrs);\n"
          "  return Value(ValueMap{\n"
          "      {\"params\", Value(std::move(params))},\n"
          "      {\"nested\", Value(ValueList{std::move(v)})},\n"
          "  });\n"
          "}\n"
          "NamedValues named{{\"a\", std::move(v)}};\n"));
  ASSERT_EQ(count_rule(fs, "init-list-move"), 3) << format_findings(fs);
  EXPECT_EQ(fs[0].file, "src/common/f.cpp");
  EXPECT_EQ(fs[0].line, 5);
  EXPECT_EQ(fs[1].line, 6);
  EXPECT_EQ(fs[2].line, 9);
}

TEST(InitListMoveTest, EmplaceFormPasses) {
  auto fs = init_list_move_check(
      "src/common/f.cpp",
      lex("Value f(ValueList params, const std::string& name) {\n"
          "  ValueMap out;\n"
          "  out.emplace(\"name\", name);\n"
          "  out.emplace(\"params\", std::move(params));\n"
          "  ValueList list;\n"
          "  list.emplace_back(std::move(out));\n"
          "  ValueMap copy{{\"name\", Value(name)}};\n"
          "  return Value(std::move(list));\n"
          "}\n"));
  EXPECT_TRUE(fs.empty()) << format_findings(fs);
}

// --- unreferenced API ---------------------------------------------------

// Indexes `files` (path, text) in order and runs the pass.
Findings api_findings(
    const std::vector<std::pair<std::string, std::string>>& files) {
  ApiIndex index;
  for (const auto& [path, text] : files) {
    api_index_file(path, lex(text), index);
  }
  return unreferenced_api_check(index);
}

TEST(UnreferencedApiTest, UnusedPublicMemberIsAFinding) {
  Findings fs = api_findings({
      {"src/x/a.hpp",
       "namespace hcm {\n"
       "class Box {\n"
       " public:\n"
       "  void fill(int n);\n"
       "  [[nodiscard]] int spare() const { return n_; }\n"  // line 5
       " private:\n"
       "  int n_ = 0;\n"
       "};\n"
       "}\n"},
      {"src/x/a.cpp",
       "void Box::fill(int n) { n_ = n; }\n"
       "int Box::spare() const { return n_; }\n"},  // a definition
      {"src/y/b.cpp", "void use(hcm::Box& b) { b.fill(1); }\n"},
  });
  ASSERT_EQ(fs.size(), 1u) << format_findings(fs);
  EXPECT_EQ(fs[0].rule, "unreferenced-api");
  EXPECT_EQ(fs[0].file, "src/x/a.hpp");
  EXPECT_EQ(fs[0].line, 5);
  EXPECT_NE(fs[0].message.find("'spare'"), std::string::npos);
  EXPECT_FALSE(fs[0].suppressed);
}

TEST(UnreferencedApiTest, UseOnlyFromATestIsNotAFinding) {
  Findings fs = api_findings({
      {"src/x/a.hpp",
       "namespace hcm {\n"
       "struct Gauge { long read() const; };\n"
       "[[nodiscard]] int parse_level(const char* s);\n"
       "}\n"},
      {"tests/x/a_test.cpp",
       "TEST(A, B) {\n"
       "  hcm::Gauge g;\n"
       "  EXPECT_EQ(g.read(), 0);\n"
       "  EXPECT_EQ(hcm::parse_level(\"x\"), 1);\n"
       "}\n"},
  });
  EXPECT_TRUE(fs.empty()) << format_findings(fs);
}

TEST(UnreferencedApiTest, MentionInACommentOrStringIsStillAFinding) {
  Findings fs = api_findings({
      {"src/x/a.hpp",
       "namespace hcm {\n"
       "void flush_all();\n"  // line 2
       "}\n"},
      {"src/x/b.cpp",
       "// flush_all() is what we would call here\n"
       "/* flush_all */\n"
       "const char* kName = \"flush_all\";\n"},
  });
  ASSERT_EQ(count_rule(fs, "unreferenced-api"), 1) << format_findings(fs);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(UnreferencedApiTest, MacroBodyIsAUse) {
  Findings fs = api_findings({
      {"src/x/check.hpp",
       "namespace hcm {\n"
       "[[noreturn]] void fail_at(const char* file, int line);\n"
       "}\n"
       "#define HCM_FAIL() ::hcm::fail_at(__FILE__, __LINE__)\n"},
  });
  EXPECT_TRUE(fs.empty()) << format_findings(fs);
}

TEST(UnreferencedApiTest, OverridesOperatorsAndHiddenMembersAreExempt) {
  Findings fs = api_findings({
      {"src/x/a.hpp",
       "namespace hcm {\n"
       "struct Base {\n"
       "  virtual ~Base() = default;\n"
       "  virtual void on_tick() = 0;\n"
       "};\n"
       "class Impl final : public Base {\n"
       " public:\n"
       "  explicit Impl(int n);\n"
       "  Impl(const Impl&) = delete;\n"
       "  void on_tick() override;\n"
       "  bool operator==(const Impl& o) const { return n_ == o.n_; }\n"
       "  const int* begin() const { return &n_; }\n"
       "  void plain();\n"  // line 13: the one in scope
       " protected:\n"
       "  void for_subclasses();\n"
       " private:\n"
       "  void helper();\n"
       "  struct Node { void walk(); };\n"
       "  int n_;\n"
       "};\n"
       "}\n"},
  });
  ASSERT_EQ(fs.size(), 1u) << format_findings(fs);
  EXPECT_EQ(fs[0].line, 13);
}

TEST(UnreferencedApiTest, TemplateParameterClassDoesNotHideStructMembers) {
  Findings fs = api_findings({
      {"src/x/a.hpp",
       "namespace hcm {\n"
       "template <class T, class U = std::vector<std::vector<T>>>\n"
       "struct Holder {\n"
       "  explicit Holder(T v);\n"
       "  T take();\n"  // line 5
       "};\n"
       "}\n"},
  });
  ASSERT_EQ(fs.size(), 1u) << format_findings(fs);
  EXPECT_EQ(fs[0].line, 5);
  EXPECT_NE(fs[0].message.find("'take'"), std::string::npos);
}

TEST(UnreferencedApiTest, OnlySrcHeadersDeclare) {
  Findings fs = api_findings({
      {"src/x/a.cpp", "namespace { void local_only() {} }\n"},
      {"tests/x/h.hpp", "inline void test_helper() {}\n"},
  });
  EXPECT_TRUE(fs.empty()) << format_findings(fs);
}

TEST(UnreferencedApiTest, InlineAllowSuppressesAndGoesStaleOnceCalled) {
  const std::string header =
      "namespace hcm {\n"
      "// hcm:allow(unreferenced-api): called by a plugin loader\n"
      "void legacy_entry();\n"
      "}\n";
  for (const bool called : {false, true}) {
    TokenStream ts = lex(header);
    ApiIndex index;
    api_index_file("src/x/a.hpp", ts, index);
    if (called) {
      api_index_file("src/x/b.cpp", lex("int f() { legacy_entry(); }\n"),
                     index);
    }
    Report report;
    report.findings = unreferenced_api_check(index);
    std::map<std::string, std::vector<AllowNote>> allows = {
        {"src/x/a.hpp", ts.allows}};
    std::map<std::string, std::vector<std::string>> lines = {
        {"src/x/a.hpp", split_lines(header)}};
    apply_suppressions(report, allows, {}, lines);
    ASSERT_EQ(report.findings.size(), 1u) << format_findings(report.findings);
    if (called) {
      EXPECT_EQ(report.findings[0].rule, "allow-stale");
      EXPECT_EQ(report.unsuppressed(), 1u);
    } else {
      EXPECT_EQ(report.findings[0].rule, "unreferenced-api");
      EXPECT_TRUE(report.findings[0].suppressed);
      EXPECT_EQ(report.findings[0].reason, "called by a plugin loader");
    }
  }
}

// --- suppression machinery ----------------------------------------------

TEST(SuppressionTest, AllowOnLineAboveSuppresses) {
  const std::string src =
      "namespace hcm {\n"
      "// hcm:allow(shard-mutable-global): startup-only config\n"
      "int g_flag = 0;\n"
      "}\n";
  TokenStream ts = lex(src);
  Report report;
  report.findings = shard_check("src/x/a.cpp", ts);
  ASSERT_EQ(report.findings.size(), 1u);

  std::map<std::string, std::vector<AllowNote>> allows = {
      {"src/x/a.cpp", ts.allows}};
  std::map<std::string, std::vector<std::string>> lines = {
      {"src/x/a.cpp", split_lines(src)}};
  apply_suppressions(report, allows, {}, lines);

  ASSERT_EQ(report.findings.size(), 1u);  // no meta-findings appended
  EXPECT_TRUE(report.findings[0].suppressed);
  EXPECT_EQ(report.findings[0].reason, "startup-only config");
  EXPECT_EQ(report.unsuppressed(), 0u);
}

TEST(SuppressionTest, AllowForOtherRuleDoesNotSuppressAndGoesStale) {
  const std::string src =
      "namespace hcm {\n"
      "// hcm:allow(determinism-wallclock): wrong rule\n"
      "int g_flag = 0;\n"
      "}\n";
  TokenStream ts = lex(src);
  Report report;
  report.findings = shard_check("src/x/a.cpp", ts);
  std::map<std::string, std::vector<AllowNote>> allows = {
      {"src/x/a.cpp", ts.allows}};
  std::map<std::string, std::vector<std::string>> lines = {
      {"src/x/a.cpp", split_lines(src)}};
  apply_suppressions(report, allows, {}, lines);

  EXPECT_EQ(count_rule(report.findings, "shard-mutable-global"), 1);
  EXPECT_FALSE(find_rule(report.findings, "shard-mutable-global")->suppressed);
  EXPECT_EQ(count_rule(report.findings, "allow-stale"), 1)
      << format_findings(report.findings);
}

TEST(SuppressionTest, ShardRulesAreEnforcedUnderSimAndCore) {
  // An hcm:allow that would normally suppress a shard finding is
  // overridden by the enforcement tier when the file lives in the
  // sharded-kernel dirs; elsewhere the suppression stands.
  const std::string src =
      "namespace hcm {\n"
      "// hcm:allow(shard-mutable-global): startup-only config\n"
      "int g_flag = 0;\n"
      "}\n";
  TokenStream ts = lex(src);
  for (const char* file : {"src/sim/a.cpp", "src/core/a.cpp"}) {
    Report report;
    report.findings = shard_check(file, ts);
    ASSERT_EQ(report.findings.size(), 1u);
    std::map<std::string, std::vector<AllowNote>> allows = {{file, ts.allows}};
    std::map<std::string, std::vector<std::string>> lines = {
        {file, split_lines(src)}};
    apply_suppressions(report, allows, {}, lines);
    EXPECT_TRUE(report.findings[0].suppressed);
    EXPECT_EQ(enforce_shard_rules(report), 1u) << file;
    EXPECT_FALSE(report.findings[0].suppressed);
    EXPECT_NE(report.findings[0].message.find("[enforced"), std::string::npos);
    EXPECT_EQ(report.unsuppressed(), 1u);
  }
  // Outside the enforced dirs the allow keeps working.
  Report report;
  report.findings = shard_check("src/obs/a.cpp", ts);
  std::map<std::string, std::vector<AllowNote>> allows = {
      {"src/obs/a.cpp", ts.allows}};
  std::map<std::string, std::vector<std::string>> lines = {
      {"src/obs/a.cpp", split_lines(src)}};
  apply_suppressions(report, allows, {}, lines);
  EXPECT_EQ(enforce_shard_rules(report), 0u);
  EXPECT_TRUE(report.findings[0].suppressed);
}

TEST(SuppressionTest, MalformedAllowIsAFinding) {
  const std::string src = "// hcm:allow(shard-mutable-global)\nint x = 0;\n";
  TokenStream ts = lex(src);
  Report report;
  std::map<std::string, std::vector<AllowNote>> allows = {
      {"src/x/a.cpp", ts.allows}};
  std::map<std::string, std::vector<std::string>> lines = {
      {"src/x/a.cpp", split_lines(src)}};
  apply_suppressions(report, allows, {}, lines);
  EXPECT_EQ(count_rule(report.findings, "allow-malformed"), 1)
      << format_findings(report.findings);
}

TEST(SuppressionTest, BaselineSuppressesByLineTextAndGoesStale) {
  const std::string src =
      "namespace hcm {\n"
      "int g_old = 0;\n"
      "}\n";
  TokenStream ts = lex(src);
  Report report;
  report.findings = shard_check("src/x/a.cpp", ts);
  ASSERT_EQ(report.findings.size(), 1u);

  std::vector<BaselineEntry> baseline = {
      {"shard-mutable-global", "src/x/a.cpp", "int g_old = 0;"},
      {"shard-mutable-global", "src/x/a.cpp", "int g_gone = 0;"},  // stale
  };
  std::map<std::string, std::vector<std::string>> lines = {
      {"src/x/a.cpp", split_lines(src)}};
  apply_suppressions(report, {}, baseline, lines);

  EXPECT_TRUE(find_rule(report.findings, "shard-mutable-global")->suppressed);
  EXPECT_EQ(count_rule(report.findings, "baseline-stale"), 1)
      << format_findings(report.findings);
}

TEST(SuppressionTest, BaselineRoundTripsThroughTextFormat) {
  std::vector<BaselineEntry> entries = {
      {"shard-mutable-global", "src/x/a.cpp", "int g = 0;"},
      {"hotpath-new", "src/net/b.cpp", "auto* p = new int(1);"},
  };
  auto parsed = parse_baseline(render_baseline(entries));
  ASSERT_EQ(parsed.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(parsed[i].rule, entries[i].rule);
    EXPECT_EQ(parsed[i].file, entries[i].file);
    EXPECT_EQ(parsed[i].line_text, entries[i].line_text);
  }
}

// --- JSON report --------------------------------------------------------

TEST(AnalyzeJsonTest, SchemaRoundTrips) {
  Report report;
  report.files_scanned = 42;
  report.findings.push_back({"hotpath-new", "src/net/stream.cpp", 17,
                             "heap allocation ('new') on the wire hot path"});
  report.findings.push_back({"shard-mutable-global", "src/obs/metrics.cpp",
                             9, "mutable namespace-scope state", true,
                             "startup-only \"config\" with\nquotes"});

  std::string json = report_to_json(report);
  EXPECT_TRUE(json_parse(json).is_ok()) << json;
  Report parsed;
  std::string err;
  ASSERT_TRUE(report_from_json(json, &parsed, &err)) << err;
  EXPECT_EQ(parsed.files_scanned, report.files_scanned);
  ASSERT_EQ(parsed.findings.size(), report.findings.size());
  EXPECT_EQ(parsed.findings[0], report.findings[0]);
  EXPECT_EQ(parsed.findings[1], report.findings[1]);
}

TEST(AnalyzeJsonTest, MalformedJsonIsRejected) {
  Report parsed;
  std::string err;
  EXPECT_FALSE(report_from_json("{\"findings\": [", &parsed, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace hcm::analyze
