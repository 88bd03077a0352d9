#!/usr/bin/env bash
# Full PR gate (docs/CORRECTNESS.md §6):
#   1. tier-1: default preset (-Werror) build + full ctest, which
#      includes the hcm_lint contract check and the determinism audit;
#   2. the same suite under ASan+UBSan (asan preset), with explicit
#      event-bridge and native-feed passes (leases, backpressure, retry
#      paths, listener leases and adapter teardown mid-event exercise
#      the trickiest object lifetimes in the tree), and a pass over the
#      observability and VSR sync suites (an island's PCM hosts the
#      observability exposure, whose handler belongs to MetaMiddleware,
#      so the teardown order of the islands and that handler matters);
#   3. races: tsan preset over the concurrency-sensitive suites —
#      the sharded kernel (SPSC channels, window barrier, the fig. 4
#      audit at 2/4 shards, the City testbed) plus the scheduler,
#      event bridge and net/stream/channel stacks;
#   4. standalone hcm_lint run for a readable summary;
#   5. hcm_analyze: the seven static-analysis passes (docs/CORRECTNESS.md
#      §"Static analysis") must report zero unsuppressed findings and no
#      more suppressed ones than the committed ANALYZE_report.json;
#      archives the fresh report there, next to the BENCH_*.json files;
#   6. smoke-run of the event-bridge fan-out bench and of the §4.2
#      polling-vs-push bench (exits 1 when an arm misses an event);
#   7. smoke-run of the VSR sync bench, archiving BENCH_vsr_sync.json;
#   8. observability overhead bench, archiving BENCH_obs_overhead.json,
#      plus a trace-export smoke check: the bench records one 3-island
#      chain and the Chrome trace it writes must carry complete events;
#   9. wire-throughput bench under the perf preset (Release -O2 — the
#      optimization level the numbers in docs/PERFORMANCE.md use),
#      archiving BENCH_wire_throughput.json; fails when the binary row
#      costs more allocs/call than the soap row, or when either row
#      costs more than 3.5 allocs/call (3.0 binary and 3.1 soap while
#      observed completions compose in place and SOAP dispatch state
#      stays in recycled slots);
#  10. durable-store gate: smoke-run of the store recovery bench
#      (archives BENCH_store_recovery.json), then `hcm_store fsck` +
#      `stats` over the store it leaves behind — the on-disk formats
#      must verify end to end with the standalone tool, not just
#      through the library that wrote them — and over the checked-in
#      cyclic pack (tests/store/fixtures/cyclic), where both must
#      report the corruption with exit status 1, not die on a signal;
#  11. shard-scaling sweep + the 1,000-island/100k-device smoke
#      scenario, archiving BENCH_shard_scaling.json — the bench itself
#      fails on a non-repeatable trace digest or a lookahead-contract
#      violation (clamped delivery). The smoke run records telemetry:
#      per-shard slabs + TimeSeriesRecorder + one health rule, dumping
#      the series to SERIES_smoke.json;
#  12. fleet telemetry gate: hcm_top must render the smoke-run series
#      dump (top ops, shard throughput, health) with a nonzero row
#      count — the dump format, the hcm_top parser, and the dashboard
#      panels verify end to end on real scenario data.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "=== [1/12] tier-1: default preset (-Werror) ==="
cmake --preset default
cmake --build --preset default -j "${JOBS}"
ctest --preset default -j "${JOBS}"

echo "=== [2/12] sanitizers: asan preset (ASan + UBSan) ==="
cmake --preset asan
cmake --build --preset asan -j "${JOBS}"
ctest --preset asan -j "${JOBS}" -R 'EventBridge'
ctest --preset asan -j "${JOBS}" -R 'NativeFeed'
ctest --preset asan -j "${JOBS}" -R 'ObsTrace|VsrSync'
# The kill -9 store-recovery harness must hold under ASan specifically:
# replaying torn on-disk state is where stale-pointer/oob bugs hide.
ctest --preset asan -j "${JOBS}" -R 'StoreCrashRecovery'
ctest --preset asan -j "${JOBS}"

echo "=== [3/12] races: tsan preset (scheduler / event bridge / net) ==="
cmake --preset tsan
cmake --build --preset tsan -j "${JOBS}"
ctest --preset tsan -j "${JOBS}" -R \
  'SchedulerTest|SpscQueueTest|WindowBarrierTest|ShardedKernelTest|ShardDeterminismTest|CityTest|DeterminismAuditTest|TraceRecorderTest|EventBridgeTest|EventBridgeUpnpTest|NetworkTest|StreamTest|Ieee1394Test|PowerlineTest|BinaryChannelTest|BlockPoolTest|ShardBlockPoolsTest'

echo "=== [4/12] hcm_lint summary ==="
./build/tools/hcm_lint/hcm_lint

echo "=== [5/12] hcm_analyze: static-analysis gate (archives ANALYZE_report.json) ==="
# Inline hcm:allow suppressions are shrink-only, like the baseline: the
# fresh report may not suppress more findings than the committed one.
analyze_report="$(mktemp)"
./build/tools/hcm_analyze/hcm_analyze --root . --json "${analyze_report}"
python3 - "${analyze_report}" ANALYZE_report.json <<'PY'
import json, sys
fresh, committed = (json.load(open(p))["summary"]["suppressed"] for p in sys.argv[1:])
print("hcm_analyze suppressions: %d (committed %d)" % (fresh, committed))
sys.exit(0 if fresh <= committed else "inline hcm:allow suppressions grew")
PY
mv "${analyze_report}" ANALYZE_report.json

echo "=== [6/12] event-bridge bench smoke runs ==="
./build/bench/bench_ext_event_bridge --benchmark_min_time=0.01
./build/bench/bench_sec42_async_limits

echo "=== [7/12] VSR sync bench smoke run (archives BENCH_vsr_sync.json) ==="
./build/bench/bench_ext_vsr_sync --benchmark_min_time=0.01 \
  --json BENCH_vsr_sync.json

echo "=== [8/12] obs overhead bench + trace-export smoke check ==="
./build/bench/bench_ext_obs_overhead --benchmark_min_time=0.01 \
  --json BENCH_obs_overhead.json --trace obs_trace_smoke.json
# The export must be a Chrome trace with complete ("ph":"X") events for
# at least the six per-hop spans of one cross-island call.
grep -q '"traceEvents"' obs_trace_smoke.json
events="$(grep -o '"ph":"X"' obs_trace_smoke.json | wc -l)"
if [ "${events}" -lt 6 ]; then
  echo "trace smoke check failed: only ${events} complete events" >&2
  exit 1
fi
echo "trace smoke check OK (${events} complete events)"
rm -f obs_trace_smoke.json

echo "=== [9/12] wire-throughput bench (perf preset, archives BENCH_wire_throughput.json) ==="
cmake --preset perf
cmake --build --preset perf -j "${JOBS}" --target bench_ext_wire_throughput
./build-perf/bench/bench_ext_wire_throughput --calls 300 --streams 5000 \
  --benchmark_min_time=0.01 --json BENCH_wire_throughput.json
grep -q '"calls_per_sec"' BENCH_wire_throughput.json
# The churn arm's pooled-block row must be present: stream-scale block
# recycling is part of the wire gate (docs/PERFORMANCE.md §"Block pool").
grep -q '"pool_hit_rate"' BENCH_wire_throughput.json
# The binary channel exists to be the lighter protocol: it may not cost
# more heap allocations per call than SOAP (docs/PERFORMANCE.md
# §"Binary channel"). The absolute bound on both rows catches a
# completion on the VSG pair that falls back to a heap cell (§"Observed
# completions compose in place") and SOAP dispatch state that stops
# reusing its slot (§"SOAP dispatch in recycled slots"): each costs one
# more allocation per call.
python3 - BENCH_wire_throughput.json <<'PY'
import json, sys
rows = {r["path"]: r for r in json.load(open(sys.argv[1]))["rows"]}
soap, binary = rows["soap"]["allocs_per_call"], rows["binary"]["allocs_per_call"]
print("allocs/call: binary %.2f, soap %.2f" % (binary, soap))
if binary > soap:
    sys.exit("binary allocs/call exceeds soap's")
for path, allocs in (("binary", binary), ("soap", soap)):
    if allocs > 3.5:
        sys.exit("%s allocs/call exceeds 3.5" % path)
PY

echo "=== [10/12] durable store: recovery bench + hcm_store fsck/stats ==="
store_smoke_dir="$(mktemp -d)/store"
./build/bench/bench_ext_store_recovery --benchmark_min_time=0.01 \
  --json BENCH_store_recovery.json --store-dir "${store_smoke_dir}"
grep -q '"compression_ratio"' BENCH_store_recovery.json
./build/tools/hcm_store/hcm_store fsck "${store_smoke_dir}"
./build/tools/hcm_store/hcm_store stats "${store_smoke_dir}"
rm -rf "$(dirname "${store_smoke_dir}")"
# A pack whose two entries are deltas on each other: the bounded chain
# walk must turn it into a reported error. Capture the status explicitly
# (set -e would abort on it), and require exactly 1: a crash is >128.
for cmd in fsck stats; do
  status=0
  ./build/tools/hcm_store/hcm_store "${cmd}" tests/store/fixtures/cyclic \
    || status=$?
  if [ "${status}" -ne 1 ]; then
    echo "hcm_store ${cmd} on the cyclic pack exited ${status}, want 1" >&2
    exit 1
  fi
done
echo "cyclic-pack check OK (fsck and stats exit 1)"

echo "=== [11/12] shard-scaling bench + 100k-device smoke (archives BENCH_shard_scaling.json, SERIES_smoke.json) ==="
./build/bench/bench_ext_shard_scaling --smoke --json BENCH_shard_scaling.json \
  --series SERIES_smoke.json
grep -q '"est_speedup"' BENCH_shard_scaling.json
grep -q '"smoke_1000x100"' BENCH_shard_scaling.json
grep -q '"hcm-series-v1"' SERIES_smoke.json

echo "=== [12/12] fleet telemetry gate: hcm_top over the smoke-run series dump ==="
# hcm_top exits nonzero when the dump parses to zero dashboard rows, so
# a bare invocation is the gate; echo the row line for the CI log.
./build/tools/hcm_top/hcm_top SERIES_smoke.json
rows="$(./build/tools/hcm_top/hcm_top SERIES_smoke.json | grep '^rows:' | awk '{print $2}')"
echo "hcm_top rendered ${rows} rows from SERIES_smoke.json"

echo "All checks passed."
