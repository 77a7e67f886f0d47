#!/usr/bin/env python3
"""Build and run the KiWi benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload analytics --seed 1 --seconds 10 --trace 0

prints a human-readable report and, as its last line, one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones.

Other modes:
    --self-test      checks that a corrupted expected value is counted as
                     failed, and that clean runs fail nothing
    --steadiness     two back-to-back sets of runs per workload, with each
                     set's median, quartiles and spread per metric

The benchmark builds itself into .bench_build/perfbench in the checkout it
sits in, and reads and writes nothing outside that checkout.
"""
import argparse
import fcntl
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "kiwi_perfbench"

WORKLOADS = ("analytics", "ingest")

# name -> unit.  failed_frac is printed but is not a gated metric: it is 0
# on a correct run, and the "failed"/"attempted" fields carry it.
END_TO_END = {
    "write_keys_per_s": "1/s",
    "write_p50_us": "us",
    "read_keys_per_s": "1/s",
    "read_p50_us": "us",
    "bytes_per_key": "B",
    "setup_s": "s",
}

PER_LAYER = {
    "index.lookup_ns": "ns",
    "index.walk_ns": "ns",
    "index.chunks": "count",
    "index.locate_restarts_per_kop": "1/kop",
    "chunk.find_latest_ns": "ns",
    "chunk.help_pending_ns": "ns",
    "chunk.batched_ratio": "ratio",
    "chunk.fill": "ratio",
    "scan.emit_ns_per_key": "ns/key",
    "scan.chunks_per_call": "count",
    "scan.keys_per_call": "count",
    "version.read_point_ns": "ns",
    "version.scans_helped_per_kscan": "1/kscan",
    "put.restarts_per_kput": "1/kput",
    "put.helped_per_kput": "1/kput",
    "put.ppa_publish_fails_per_kput": "1/kput",
    "put.link_retries_per_kput": "1/kput",
    "put.cell_overflows_per_kput": "1/kput",
    "rebalance.per_kkey": "1/kkey",
    "rebalance.win_frac": "ratio",
    "rebalance.busy_frac": "ratio",
    "rebalance.chunks_created_per_kkey": "1/kkey",
    "rebalance.engage_ns_p50": "ns",
    "rebalance.freeze_ns_p50": "ns",
    "rebalance.build_ns_p50": "ns",
    "rebalance.replace_ns_p50": "ns",
    "rebalance.index_ns_p50": "ns",
    "batch.bulk_frac": "ratio",
    "ebr.guard_ns": "ns",
    "ebr.pending_bytes_max": "B",
    "ebr.epoch_lag_max": "count",
    "pool.hit_frac": "ratio",
    "pool.alloc_ns": "ns",
    "layout.compare_prefix_ns": "ns",
    "layout.compare_tie_ns": "ns",
    "layout.arena_fill": "ratio",
    "api.read_p99_us": "us",
    "api.write_p99_us": "us",
    "api.read_samples": "count",
    "api.write_samples": "count",
    "api.get_phase_sum_frac": "ratio",
    "api.trace_overhead_frac": "ratio",
}

# A first run builds; later runs only check the build is current.
BUILD_SECONDS = 850
RUN_SECONDS_LIMIT = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark.  Returns True if the binary
    was (re)built by this call.  Exits non-zero on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    before = BINARY.stat().st_mtime_ns if BINARY.exists() else None
    build_log = BUILD / "build.log"
    with open(BUILD / "build.lock", "w") as lock, open(build_log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "Makefile").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "kiwi_perfbench", "-j", jobs])
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_SECONDS).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                code = str(err)
            if code != 0:
                out.flush()
                tail = build_log.read_text(errors="replace").splitlines()[-30:]
                log("\n".join(tail))
                log(f"perfbench: build step failed ({code}): {' '.join(cmd)}")
                sys.exit(1)
    after = BINARY.stat().st_mtime_ns if BINARY.exists() else None
    return after != before


def clean_env():
    """The environment with every KIWI_* variable removed, so nothing but the
    command line can change what the program does."""
    return {k: v for k, v in os.environ.items() if not k.startswith("KIWI_")}


def run_binary(args, timeout):
    """Runs the benchmark binary; returns (report lines, result dict)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, env=clean_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run timed out after {timeout:.0f} s")
        sys.exit(1)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: benchmark exited with {proc.returncode}")
        sys.exit(1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: the benchmark printed no result line")
        sys.exit(1)
    return lines[:-1], result


def one_run(workload, seed, seconds, trace, timeout):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = BUILD / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans)]
    return run_binary(args, timeout)


def contract_line(result, trace):
    table = PER_LAYER if trace else END_TO_END
    source = result["layers"] if trace else result["end_to_end"]
    metrics = {}
    for name, unit in table.items():
        value = source.get(name)
        if isinstance(value, (int, float)) and math.isfinite(value):
            metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def fingerprint(seed):
    cache = BUILD / "CMakeCache.txt"
    entries = {}
    if cache.exists():
        for line in cache.read_text(errors="replace").splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                entries[key.split(":", 1)[0]] = value
    compiler = entries.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return (f"nproc {os.cpu_count()}  compiler {version}  build "
            f"{entries.get('CMAKE_BUILD_TYPE', '?')}  git {sha}  "
            f"seed {seed}  python {platform.python_version()}")


def steadiness(workloads, runs, seed, seconds):
    """Two back-to-back sets of `runs` runs per workload, seeds seed ..
    seed+runs-1 in each set."""
    print(fingerprint(seed))
    print(f"runs per set {runs}  seconds per run {seconds}")
    worst = {}
    for workload in workloads:
        sets = []
        for _ in range(2):
            values = {name: [] for name in END_TO_END}
            failed = 0
            for i in range(runs):
                _, result = one_run(workload, seed + i, seconds, False,
                                    RUN_SECONDS_LIMIT)
                failed += result["failed"]
                for name in END_TO_END:
                    values[name].append(result["end_to_end"][name])
            sets.append((values, failed))
        print(f"\n{workload}  (failed: set1 {sets[0][1]}, set2 {sets[1][1]})")
        print(f"  {'metric':<18} {'set1 q1/med/q3':>36}  {'iqr/med':>7}  "
              f"{'set2 q1/med/q3':>36}  {'iqr/med':>7}  {'med diff':>8}")
        for name in END_TO_END:
            row = []
            spreads = []
            meds = []
            for values, _ in sets:
                q1, med, q3 = quartiles(values[name])
                spread = (q3 - q1) / med if med else float("nan")
                spreads.append(spread)
                meds.append(med)
                row.append(f"{q1:11.5g} {med:11.5g} {q3:11.5g}")
            diff = (meds[1] - meds[0]) / meds[0] if meds[0] else float("nan")
            print(f"  {name:<18} {row[0]:>36}  {spreads[0]:7.3f}  "
                  f"{row[1]:>36}  {spreads[1]:7.3f}  {diff:+8.3f}")
            key = (workload, name)
            worst[key] = (max(spreads), abs(diff))
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(spec.read_text())["end_to_end"]}
    if bounds:
        print("\nagainst BENCHMARK.json bounds (spread excludes setup_s):")
        for (workload, name), (spread, diff) in worst.items():
            bound = bounds.get(name)
            if bound is None:
                continue
            ok_spread = name == "setup_s" or spread <= bound
            verdict = "ok" if ok_spread and diff <= bound else "OUT"
            print(f"  {workload:<10} {name:<18} spread {spread:6.3f}  "
                  f"drift {diff:6.3f}  bound {bound:5.2f}  {verdict}")


def self_test():
    """A corrupted expected value must be counted as failed; clean runs must
    fail nothing; BENCHMARK.json must name exactly the metrics printed."""
    problems = []
    for workload in WORKLOADS:
        _, bad = run_binary(["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--sabotage"], RUN_SECONDS_LIMIT)
        if not 0 < bad["failed"] <= bad["attempted"]:
            problems.append(f"{workload}: corrupted expectations gave "
                            f"{bad['failed']} failed of {bad['attempted']}")
        _, good = run_binary(["--workload", workload, "--seed", "7",
                              "--seconds", "1"], RUN_SECONDS_LIMIT)
        if good["failed"] != 0:
            problems.append(f"{workload}: a clean run failed "
                            f"{good['failed']} of {good['attempted']}")
        print(f"{workload}: sabotaged run failed {bad['failed']} of "
              f"{bad['attempted']}; clean run failed {good['failed']} of "
              f"{good['attempted']}")
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        spec = json.loads(spec.read_text())
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != table:
                problems.append(f"BENCHMARK.json {key} differs from run.py")
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from run.py")
    for problem in problems:
        print("FAIL:", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set in --steadiness mode")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated, for --steadiness")
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")

    start = time.monotonic()
    built = build()
    if args.self_test:
        return self_test()
    if args.steadiness:
        steadiness([w for w in args.workloads.split(",") if w], args.runs,
                   args.seed, args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    budget = (BUILD_SECONDS + 40 if built else RUN_SECONDS_LIMIT + 5)
    timeout = max(30.0, budget - (time.monotonic() - start))
    lines, result = one_run(args.workload, args.seed, args.seconds,
                            bool(args.trace), timeout)
    for line in lines:
        print(line)
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
