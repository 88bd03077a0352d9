// hcm_analyze driver: multi-pass static analysis over src/ + tools/.
//
//   hcm_analyze --root <repo> [--json out.json] [--manifest path]
//               [--baseline path] [--update-baseline]
//
// Passes (docs/CORRECTNESS.md §"Static analysis"):
//   1. layering     — include DAG vs. the architectural order; cycles.
//   2. determinism  — wall clock / ambient randomness / unordered
//                     iteration banned in src/sim + src/core.
//   3. hot path     — allocation constructs and per-call registry
//                     lookups (obs-hotpath-lookup) gated inside the
//                     PR 5 wire path scopes in hotpath_manifest.txt.
//   4. shard        — mutable namespace-scope / static-local state
//                     across src/; enforcing (unsuppressable) under
//                     src/sim + src/core now the sharded kernel runs
//                     that code on worker threads.
//   5. status       — [[nodiscard]] on Status/Result-returning
//                     declarations in src/common + src/core headers,
//                     and no discarded calls to them anywhere in src/.
//   6. value build  — no std::move inside a braced ValueMap/ValueList/
//                     NamedValues initializer list in src/ (it copies).
// Suppression: inline `// hcm:allow(rule): reason` or a baseline
// entry; stale suppressions of either kind fail the run, so the
// baseline only shrinks. Exit 1 on any unsuppressed finding.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hcm_analyze/analysis.hpp"
#include "hcm_analyze/passes.hpp"
#include "hcm_analyze/token_stream.hpp"

namespace fs = std::filesystem;
using namespace hcm::analyze;

namespace {

struct SourceFile {
  std::string rel;
  std::string text;
  TokenStream stream;
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void append(Findings& all, Findings more) {
  all.insert(all.end(), more.begin(), more.end());
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_arg;
  std::string json_out;
  std::string manifest_arg;
  std::string baseline_arg;
  bool update_baseline = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--root") root_arg = next();
    else if (arg == "--json") json_out = next();
    else if (arg == "--manifest") manifest_arg = next();
    else if (arg == "--baseline") baseline_arg = next();
    else if (arg == "--update-baseline") update_baseline = true;
    else {
      std::fprintf(stderr, "hcm_analyze: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (root_arg.empty()) {
    std::fprintf(stderr,
                 "usage: hcm_analyze --root <repo> [--json out.json] "
                 "[--manifest path] [--baseline path] "
                 "[--update-baseline]\n");
    return 2;
  }
  const fs::path root = root_arg;
  const fs::path manifest_path =
      manifest_arg.empty()
          ? root / "tools" / "hcm_analyze" / "hotpath_manifest.txt"
          : fs::path(manifest_arg);
  const fs::path baseline_path =
      baseline_arg.empty() ? root / "tools" / "hcm_analyze" / "baseline.txt"
                           : fs::path(baseline_arg);

  // --- collect + lex ----------------------------------------------------
  std::vector<SourceFile> files;
  for (const char* top : {"src", "tools"}) {
    fs::path dir = root / top;
    if (!fs::exists(dir)) continue;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file()) continue;
      auto ext = e.path().extension();
      if (ext != ".cpp" && ext != ".hpp") continue;
      SourceFile f;
      f.rel = fs::relative(e.path(), root).generic_string();
      f.text = read_file(e.path());
      files.push_back(std::move(f));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
  for (SourceFile& f : files) f.stream = lex(f.text);

  Report report;
  report.files_scanned = files.size();
  if (files.empty()) {
    std::fprintf(stderr,
                 "hcm_analyze: no sources under %s/src — bad --root?\n",
                 root_arg.c_str());
    return 1;
  }

  std::set<std::string> known;
  for (const SourceFile& f : files) known.insert(f.rel);

  // --- pass 1: layering -------------------------------------------------
  const LayerConfig layers = default_layers();
  std::map<std::string, std::vector<std::string>> graph;
  for (const SourceFile& f : files) {
    append(report.findings, layering_check_file(f.rel, f.stream, layers));
    std::vector<std::string>& deps = graph[f.rel];
    for (const IncludeRef& inc : extract_includes(f.stream)) {
      if (inc.angled) continue;
      for (const char* prefix : {"src/", "tools/"}) {
        std::string candidate = prefix + inc.path;
        if (known.count(candidate) != 0) {
          deps.push_back(std::move(candidate));
          break;
        }
      }
    }
  }
  append(report.findings, layering_check_cycles(graph));

  // --- pass 2: determinism ----------------------------------------------
  for (const SourceFile& f : files) {
    if (determinism_covered(f.rel)) {
      append(report.findings, determinism_check(f.rel, f.stream));
    }
  }

  // --- pass 3: hot-path allocations -------------------------------------
  std::string manifest_text = read_file(manifest_path);
  if (manifest_text.empty()) {
    report.findings.push_back(
        {"hotpath-missing-file", manifest_path.generic_string(), 0,
         "hot-path manifest missing or empty — the wire-path allocation "
         "gate has nothing to protect"});
  }
  for (const HotScope& scope : parse_manifest(manifest_text)) {
    const SourceFile* hit = nullptr;
    for (const SourceFile& f : files) {
      if (f.rel == scope.path) {
        hit = &f;
        break;
      }
    }
    if (hit == nullptr) {
      report.findings.push_back(
          {"hotpath-missing-file", scope.path, 0,
           "manifest names a file that does not exist — fix "
           "hotpath_manifest.txt when moving hot-path code"});
      continue;
    }
    append(report.findings, hotpath_check(hit->rel, hit->stream, scope));
  }

  // --- pass 4: shard readiness ------------------------------------------
  for (const SourceFile& f : files) {
    if (f.rel.rfind("src/", 0) == 0) {
      append(report.findings, shard_check(f.rel, f.stream));
    }
  }

  // --- pass 5: Status discipline ----------------------------------------
  std::set<std::string> status_fns;
  for (const SourceFile& f : files) {
    if (status_decls_covered(f.rel)) {
      append(report.findings, nodiscard_check(f.rel, f.stream));
      std::set<std::string> fns = status_functions(f.stream);
      status_fns.insert(fns.begin(), fns.end());
    }
  }
  for (const SourceFile& f : files) {
    if (f.rel.rfind("src/", 0) == 0) {
      append(report.findings,
             discarded_status_check(f.rel, f.stream, status_fns));
    }
  }

  // --- pass 6: Value building -------------------------------------------
  for (const SourceFile& f : files) {
    if (f.rel.rfind("src/", 0) == 0) {
      append(report.findings, init_list_move_check(f.rel, f.stream));
    }
  }

  // --- suppression ------------------------------------------------------
  std::map<std::string, std::vector<AllowNote>> allows;
  std::map<std::string, std::vector<std::string>> lines;
  for (const SourceFile& f : files) {
    if (!f.stream.allows.empty()) allows[f.rel] = f.stream.allows;
    lines[f.rel] = split_lines(f.text);
  }
  std::vector<BaselineEntry> baseline =
      parse_baseline(read_file(baseline_path));

  if (update_baseline) {
    // Apply inline allows only (empty baseline), then write what's left.
    apply_suppressions(report, allows, {}, lines);
    auto entries = baseline_from_findings(report, lines);
    std::ofstream out(baseline_path, std::ios::binary | std::ios::trunc);
    out << render_baseline(entries);
    std::printf("hcm_analyze: baseline rewritten with %zu entr%s (%s)\n",
                entries.size(), entries.size() == 1 ? "y" : "ies",
                baseline_path.generic_string().c_str());
    return 0;
  }

  apply_suppressions(report, allows, baseline, lines);

  // Shard enforcement (ISSUE 8): the sharded kernel is live, so new
  // unguarded mutable namespace-scope / static-local state under
  // src/sim + src/core is an error no suppression can excuse.
  enforce_shard_rules(report);

  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary | std::ios::trunc);
    out << report_to_json(report);
  }

  Findings failing;
  for (const Finding& f : report.findings) {
    if (!f.suppressed) failing.push_back(f);
  }
  if (!failing.empty()) {
    std::fprintf(stderr, "hcm_analyze: %zu violation(s)\n%s",
                 failing.size(), format_findings(failing).c_str());
    return 1;
  }
  std::printf(
      "hcm_analyze: OK — %zu files, 6 passes, %zu finding(s) all "
      "suppressed with recorded justifications\n",
      report.files_scanned, report.findings.size());
  return 0;
}
