#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the benchmark binary from this checkout's sources (CMake, into
.bench_build/ at the checkout root), runs one seeded workload and
prints one result record as the last line of standard output:

    python3 perfbench/run.py --workload calls_soap --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json (untraced
run); --trace 1 reports its per-layer metrics (counts from the
deterministic script plus a traced run). Exit status is non-zero when
the build fails, the sources are missing, or any output check fails.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
BINARY = os.path.join(BUILD, "hcm_perfbench")
WORKLOADS = ("calls_soap", "calls_binary", "dynamism", "city")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest():
    """SHA-1 over the framework and benchmark sources (provenance for
    checkouts without git metadata)."""
    h = hashlib.sha1()
    for top in ("src", "bench", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: framework sources (src/) not found next to %s" % HERE)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        try:
            subprocess.run(["ninja", "--version"], capture_output=True, check=True)
            configure += ["-G", "Ninja"]
        except (OSError, subprocess.CalledProcessError):
            pass
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "hcm_perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 2
    if not build():
        log("perfbench: build failed")
        return 2

    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: no result from %s (exit %d)" % (BINARY, proc.returncode))
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["layers"] if args.trace else result["e2e"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]["value"]
        elif args.trace:
            # A layer the workload leaves idle emits nothing; README.md
            # lists where each per-layer metric applies.
            value = 0
        else:
            log("perfbench: metric %s missing from the run" % m["name"])
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    provenance = dict(result["provenance"])
    provenance["source_digest"] = source_digest()
    provenance["python"] = platform.python_version()
    log("perfbench: provenance %s" % json.dumps(provenance, sort_keys=True))
    for err in result["errors"]:
        log("perfbench: FAILED CHECK: %s" % err)

    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
