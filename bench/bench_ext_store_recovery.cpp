// Durable VSR store bench: recovery time and on-disk footprint vs
// journal size (ISSUE 7 acceptance shape). Sweeps S services x R
// revisions of publish churn through a VsrStore, then measures
//   - on-disk bytes with the raw log vs after a forced compaction into
//     delta packs (the >=10x compression criterion rides here), and
//   - open()+replay wall time against both layouts — compaction buys
//     recovery that is flat in churn history, log-only replay grows
//     linearly with it.
// --json <path> archives the table (BENCH_store_recovery.json);
// --store-dir <path> additionally leaves a compacted store at <path>
// for `hcm_store fsck` to verify in CI.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "store/vsr_store.hpp"

using namespace hcm;

namespace {

std::string revision_body(const std::string& name, int rev) {
  // Realistic WSDL bulk with a small hot region: a stable operation
  // list plus one endpoint attribute that changes per revision.
  std::string body = "<definitions name=\"" + name + "\">";
  for (int op = 0; op < 40; ++op) {
    body += "<operation name=\"op" + std::to_string(op) +
            "\" input=\"" + name + "Req" + std::to_string(op) +
            "\" output=\"" + name + "Resp" + std::to_string(op) +
            "\" doc=\"lease-renewable control operation exported by the "
            "island gateway\"/>";
  }
  body += "<endpoint uri=\"http://fav:8000/" + name + "/r" +
          std::to_string(rev) + "\"/></definitions>";
  return body;
}

store::VsrStoreOptions options_for(const std::string& dir) {
  store::VsrStoreOptions opts;
  opts.dir = dir;
  // No fsync: the bench measures bytes and replay CPU, not disk stalls.
  opts.fsync = store::RecordLog::FsyncPolicy::kNone;
  // No automatic rolls: each layout is measured explicitly.
  opts.compact_threshold_bytes = ~std::uint64_t{0};
  return opts;
}

// Writes S services x R revisions of churn. Returns total raw body
// bytes pushed through (what a store without dedup+delta would hold).
std::uint64_t churn(store::VsrStore& s, int services, int revisions) {
  s.record_epoch(1);
  std::uint64_t raw = 0;
  std::uint64_t seq = 0;
  for (int rev = 0; rev < revisions; ++rev) {
    for (int i = 0; i < services; ++i) {
      const std::string name = "svc-" + std::to_string(i);
      const std::string body = revision_body(name, rev);
      raw += body.size();
      store::UpsertRecord u;
      u.seq = ++seq;
      u.name = name;
      u.category = "DeviceControl";
      u.origin = "bench-island";
      u.digest = store::content_digest(body);
      u.expires_at = static_cast<std::int64_t>(seq) * 1000000;
      s.record_upsert(u, body);
    }
    if (!s.commit().is_ok()) std::abort();
  }
  return raw;
}

double timed_open_ms(const store::VsrStoreOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  store::VsrStore s(opts);
  if (!s.open().is_ok()) std::abort();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

struct SweepResult {
  std::uint64_t raw_bytes = 0;
  std::uint64_t log_bytes = 0;        // on disk before compaction
  std::uint64_t compact_bytes = 0;    // on disk after compaction
  double open_log_ms = 0;             // replaying the raw log
  double open_compact_ms = 0;         // replaying packs + checkpoint
  std::uint64_t log_records = 0;
};

SweepResult run_config(int services, int revisions, const std::string& dir) {
  std::filesystem::remove_all(dir);
  const auto opts = options_for(dir);
  SweepResult r;
  {
    store::VsrStore s(opts);
    if (!s.open().is_ok()) std::abort();
    r.raw_bytes = churn(s, services, revisions);
    r.log_bytes = s.log_bytes();
  }
  r.open_log_ms = timed_open_ms(opts);
  {
    store::VsrStore s(opts);
    if (!s.open().is_ok() || !s.compact().is_ok()) std::abort();
  }
  r.compact_bytes = dir_bytes(dir);
  r.open_compact_ms = timed_open_ms(opts);
  auto stats = store::VsrStore::stats(dir);
  if (stats.is_ok()) r.log_records = stats.value().log_records;
  return r;
}

void sweep_report(const std::string& json_path, const std::string& keep_dir) {
  bench::print_header(
      "Durable VSR store: recovery time and on-disk bytes vs journal size");
  std::printf(
      "  workload: S services x R publish revisions (each revision a small\n"
      "  edit of the last), committed per revision round\n\n");
  std::printf(
      "    S    R      raw B      log B  compact B   ratio   open(log)"
      "   open(pack)\n");

  bench::JsonReport report("bench_ext_store_recovery");
  report.stamp_provenance();
  const std::string scratch =
      (std::filesystem::temp_directory_path() / "hcm_bench_store").string();
  struct Config { int services; int revisions; };
  const Config configs[] = {{4, 10}, {4, 50}, {16, 50}, {64, 50}};
  for (const auto& c : configs) {
    const SweepResult r = run_config(c.services, c.revisions, scratch);
    const double ratio = r.compact_bytes == 0
                             ? 0.0
                             : static_cast<double>(r.raw_bytes) /
                                   static_cast<double>(r.compact_bytes);
    std::printf(
        "  %3d  %3d  %9llu  %9llu  %9llu  %5.1fx  %7.2f ms  %8.2f ms\n",
        c.services, c.revisions,
        static_cast<unsigned long long>(r.raw_bytes),
        static_cast<unsigned long long>(r.log_bytes),
        static_cast<unsigned long long>(r.compact_bytes), ratio,
        r.open_log_ms, r.open_compact_ms);
    report.row()
        .num("services", static_cast<std::uint64_t>(c.services))
        .num("revisions", static_cast<std::uint64_t>(c.revisions))
        .num("raw_body_bytes", r.raw_bytes)
        .num("log_bytes", r.log_bytes)
        .num("compacted_bytes", r.compact_bytes)
        .num("compression_ratio", ratio)
        .num("open_log_ms", r.open_log_ms)
        .num("open_compacted_ms", r.open_compact_ms)
        .num("log_records", r.log_records);
  }
  std::filesystem::remove_all(scratch);

  std::printf(
      "\n  -> compaction turns O(history) replay into O(live set): the\n"
      "     checkpointed layout opens in near-constant time while raw-log\n"
      "     replay grows with churn, and delta packs hold 50-revision\n"
      "     churn at a >=10x discount to the raw bytes.\n");

  if (!keep_dir.empty()) {
    // Leave a compacted store behind for `hcm_store fsck` in CI.
    (void)run_config(8, 25, keep_dir);
    std::printf("  (store left at %s)\n", keep_dir.c_str());
  }
  if (!json_path.empty() && report.write(json_path)) {
    std::printf("  (json written to %s)\n", json_path.c_str());
  }
}

// CPU side: the per-publish write-through cost (encode + stage + group
// commit, no fsync).
void BM_StoreCommit(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hcm_bench_store_bm").string();
  std::filesystem::remove_all(dir);
  store::VsrStore s(options_for(dir));
  if (!s.open().is_ok()) std::abort();
  s.record_epoch(1);
  std::uint64_t seq = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const std::string body =
        revision_body("svc-0", static_cast<int>(seq % 1000));
    bytes += body.size();
    store::UpsertRecord u;
    u.seq = ++seq;
    u.name = "svc-0";
    u.category = "DeviceControl";
    u.origin = "bench-island";
    u.digest = store::content_digest(body);
    s.record_upsert(u, body);
    if (!s.commit().is_ok()) std::abort();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreCommit);

// The argument following `flag`, or "" when absent.
std::string path_arg(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_arg(argc, argv);
  const std::string store_dir = path_arg(argc, argv, "--store-dir");
  // Strip our flags before handing argv to the benchmark library.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" || a == "--store-dir") {
      ++i;  // skip the value too
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());

  sweep_report(json_path, store_dir);
  benchmark::Initialize(&filtered_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
