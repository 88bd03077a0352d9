// The six analysis passes of hcm_analyze. Each exposes a text-level
// entry point (driven against known-bad fixtures by
// tests/tools/hcm_analyze_test.cpp) plus whatever whole-tree state it
// needs; tree orchestration lives in main.cpp. Rule ids are stable —
// they are the key of every hcm:allow annotation and baseline entry —
// and are documented in docs/CORRECTNESS.md §"Static analysis".
//
//   layering:    layering-unknown-include, layering-upward,
//                layering-lateral, layering-cycle
//   determinism: determinism-wallclock, determinism-random,
//                determinism-unordered-iter
//   hot path:    hotpath-new, hotpath-make, hotpath-node-container,
//                hotpath-std-function, hotpath-missing-file,
//                hotpath-bytes-growth, obs-hotpath-lookup
//   shard:       shard-mutable-global, shard-static-local
//   status:      missing-nodiscard, discarded-status
//   value build: init-list-move
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "hcm_analyze/analysis.hpp"
#include "hcm_analyze/token_stream.hpp"

namespace hcm::analyze {

// --- layering pass ------------------------------------------------------
// The architectural order of src/ modules, bottom-up. A file in module
// M may include only modules with a strictly lower rank (or M itself);
// modules sharing a rank are peers and must not include each other
// (adapters especially). Unknown first segments are themselves
// violations so a new module cannot land unranked.
struct LayerConfig {
  std::map<std::string, int> rank;
};

// common < xml,sim < obs < net < http < soap <
// havi,jini,upnp,x10,mail < core < testbed — the dependency DAG the
// wire stack actually builds on (docs/CORRECTNESS.md shows the diagram).
[[nodiscard]] LayerConfig default_layers();

// Module name of a repo-relative path ("src/http/client.cpp" ->
// "http"); empty for paths outside src/.
[[nodiscard]] std::string module_of(const std::string& rel_path);

// Per-file edge checks (unknown module, upward or lateral include).
[[nodiscard]] Findings layering_check_file(const std::string& rel_path,
                                           const TokenStream& ts,
                                           const LayerConfig& layers);

// Cycle check over the quoted-include file graph. `graph` maps a
// repo-relative path to the repo-relative paths it includes (callers
// resolve include strings to paths; unresolved ones are skipped).
[[nodiscard]] Findings layering_check_cycles(
    const std::map<std::string, std::vector<std::string>>& graph);

// --- determinism pass ---------------------------------------------------
// Bans nondeterminism sources in the deterministic core (src/sim,
// src/core, src/store): wall-clock reads, ambient randomness / unseeded
// engines, and iteration over unordered containers (their order leaks
// into the TraceRecorder hash, the scheduler, wire emission and the
// durable log's byte stream). File-local heuristic for the iteration
// rule: range-for / .begin() over a name declared with an unordered_*
// type in the same file.

// Whether the pass gates this repo-relative path. src/store is covered
// because replay and compaction must be pure functions of the on-disk
// bytes: a clock read or ambient randomness there would make recovery
// (and hence the registry's resumed epoch/seq) irreproducible;
// durability timestamps always come from the caller.
[[nodiscard]] bool determinism_covered(const std::string& rel_path);

[[nodiscard]] Findings determinism_check(const std::string& rel_path,
                                         const TokenStream& ts);

// --- hot-path allocation pass -------------------------------------------
// One manifest entry: a file on the PR 5 wire path, optionally
// restricted to named functions (bare name, Class::name, or a class
// name covering all its members).
struct HotScope {
  std::string path;
  std::vector<std::string> fns;  // empty = whole file
};

// Manifest format: one `path [fn=a,b,c]` per line, '#' comments.
[[nodiscard]] std::vector<HotScope> parse_manifest(const std::string& text);

[[nodiscard]] Findings hotpath_check(const std::string& rel_path,
                                     const TokenStream& ts,
                                     const HotScope& scope);

// --- shard-readiness pass -----------------------------------------------
// Inventories cross-shard hazards anywhere under src/: mutable
// namespace-scope variables and mutable function-local statics
// (const/constexpr/std::atomic are exempt). Must be empty-or-suppressed
// before the sharded sim kernel lands.
[[nodiscard]] Findings shard_check(const std::string& rel_path,
                                   const TokenStream& ts);

// --- Status discipline pass ---------------------------------------------
// Closes the gap the compiler leaves open: every function returning
// Status or Result<...> by value that is declared in a header under
// src/common or src/core must be [[nodiscard]] (missing-nodiscard), and
// no statement anywhere under src/ may call one of those functions and
// drop the result (discarded-status) — the compiler enforces the latter
// only where the attribute is present.

// Whether the declaration half gates (and collects names from) this
// repo-relative path: headers under src/common and src/core.
[[nodiscard]] bool status_decls_covered(const std::string& rel_path);

// Names of the functions declared in `ts` that return Status/Result by
// value.
[[nodiscard]] std::set<std::string> status_functions(const TokenStream& ts);

[[nodiscard]] Findings nodiscard_check(const std::string& rel_path,
                                       const TokenStream& ts);

// Whole statements `receiver.fn(...);` / `fn(...);` with fn in `fns`.
[[nodiscard]] Findings discarded_status_check(
    const std::string& rel_path, const TokenStream& ts,
    const std::set<std::string>& fns);

// --- Value building pass ------------------------------------------------
// The elements of an initializer list are const, so a `std::move(`
// inside `ValueMap{...}`, `ValueList{...}` or `NamedValues{...}` (also
// `ValueMap name{...}`) compiles to a deep copy of the moved tree.
// Build such containers with emplace/emplace_back instead.
[[nodiscard]] Findings init_list_move_check(const std::string& rel_path,
                                            const TokenStream& ts);

}  // namespace hcm::analyze
