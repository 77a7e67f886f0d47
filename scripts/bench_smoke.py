#!/usr/bin/env python3
"""CI bench smoke: run the fast benches, emit BENCH_ci.json, gate regressions.

Runs micro_ops (kiwi series only), micro_ops_bytes, fig3_basic, and
fig_ingest at a deliberately small scale, collects the kiwi numbers into one JSON artifact
(throughputs plus the fig_ingest batch/put speed-up ratios), and —
when a checked-in baseline exists — fails if any metric regressed beyond
the tolerance (default 25%, override with BENCH_SMOKE_TOLERANCE).

    python3 scripts/bench_smoke.py --build build --out BENCH_ci.json \
        [--baseline bench/baseline_ci.json] [--check]

The baseline stores the *expected* throughput of each metric on a CI
runner; the tolerance absorbs runner noise.  Metrics present in the run
but absent from the baseline are reported, not gated, so adding a bench
never breaks CI retroactively.  Regenerate the baseline by copying a
trusted run's BENCH_ci.json over bench/baseline_ci.json.

Pure standard library; no dependencies.
"""
import argparse
import json
import os
import subprocess
import sys

# Small-scale knobs: the point is a regression *ratio*, not a publishable
# number, so keep CI wall-clock in seconds.
SMOKE_ENV = {
    "KIWI_BENCH_SIZE": "20000",
    "KIWI_BENCH_WARMUP_MS": "100",
    "KIWI_BENCH_ITER_MS": "300",
    "KIWI_BENCH_ITERS": "2",
    # obsjson rows feed the artifact's "obs" section (retry/lag trajectory).
    "KIWI_BENCH_OBS": "1",
}


def collect_obs(stdout, obs):
    """Fold `obsjson,<figure>,<series>,<json>` rows into {key: columns}.

    A figure emits one row per (series, run); later runs of the same key
    overwrite earlier ones, so each key holds the final run's numbers.
    Trajectory only, never gated: retry counts vary wildly with runner
    load, so they are recorded for trend reading, not thresholds.  Every
    per-counter value stays in the JSON row itself."""
    for line in stdout.splitlines():
        if not line.startswith("obsjson,"):
            continue
        try:
            _, figure, series, payload = line.split(",", 3)
            report = json.loads(payload)
        except ValueError:
            continue
        counters = report.get("counters", {})
        gauges = report.get("gauges", {})
        obs[f"{figure}/{series}"] = {
            "retries_total": counters.get("retries", 0),
            "put_restarts": counters.get("put_restarts", 0),
            "ebr_epoch_lag": gauges.get("ebr_epoch_lag", 0),
            "ebr_pending_bytes": gauges.get("ebr_pending_bytes", 0),
        }


def run_gbench(build_dir, name, *flags):
    """A google-benchmark binary -> {<name>/<bench>: ops_per_second}.

    The JSON report lands under the build directory."""
    out_path = os.path.join(build_dir, f"{name}_ci.json")
    cmd = [
        os.path.join(build_dir, "bench", name),
        *flags,
        "--benchmark_format=json",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    subprocess.run(cmd, check=True, env=dict(os.environ, **SMOKE_ENV))
    with open(out_path) as f:
        report = json.load(f)
    metrics = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        # real_time is ns/op (benchmark's default unit here); invert so
        # every metric in the artifact is higher-is-better.
        ns = bench["real_time"]
        if ns > 0:
            metrics[f"{name}/{bench['name']}"] = 1e9 / ns
    return metrics


def run_csv_figure(build_dir, name, obs):
    """A figure bench's kiwi rows -> {<figure>/<series>@<x>: y}.

    fig_ingest's batch_over_put_presorted ratio is the PutBatch acceptance
    gate: the bulk-build path must stay a multiple (>=2x) of per-op Put,
    not a percentage (docs/INGEST.md)."""
    cmd = [
        os.path.join(build_dir, "bench", name),
        "--maps=kiwi",
        "--threads=1,2",
    ]
    result = subprocess.run(cmd, check=True, env=dict(os.environ, **SMOKE_ENV),
                            capture_output=True, text=True)
    sys.stdout.write(result.stdout)
    collect_obs(result.stdout, obs)
    metrics = {}
    for line in result.stdout.splitlines():
        parts = line.split(",")
        if len(parts) == 6 and parts[0] == "csv":
            _, figure, series, x, y, _unit = parts
            metrics[f"{figure}/{series}@{x}"] = float(y)
    return metrics


def check(metrics, baseline_path, tolerance):
    with open(baseline_path) as f:
        baseline = json.load(f).get("metrics", {})
    failures = []
    for name, expected in sorted(baseline.items()):
        actual = metrics.get(name)
        if actual is None:
            failures.append(f"{name}: present in baseline but not measured")
            continue
        floor = expected * (1.0 - tolerance)
        verdict = "OK" if actual >= floor else "REGRESSED"
        print(f"  {verdict:9s} {name}: {actual:.3g} vs baseline {expected:.3g}"
              f" (floor {floor:.3g})")
        if actual < floor:
            failures.append(
                f"{name}: {actual:.3g} < {floor:.3g}"
                f" (baseline {expected:.3g} - {tolerance:.0%})")
    for name in sorted(set(metrics) - set(baseline)):
        print(f"  NEW       {name}: {metrics[name]:.3g} (not gated)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build")
    parser.add_argument("--out", default="BENCH_ci.json")
    parser.add_argument("--baseline", default="bench/baseline_ci.json")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the baseline")
    args = parser.parse_args()
    tolerance = float(os.environ.get("BENCH_SMOKE_TOLERANCE", "0.25"))

    metrics = {}
    obs = {}
    # micro_ops: kiwi series only.  micro_ops_bytes (byte-key map) gets its
    # own gated namespace: the arena hot path regresses independently.
    metrics.update(run_gbench(args.build, "micro_ops",
                              "--benchmark_filter=kKiWi"))
    metrics.update(run_gbench(args.build, "micro_ops_bytes"))
    metrics.update(run_csv_figure(args.build, "fig3_basic", obs))
    metrics.update(run_csv_figure(args.build, "fig_ingest", obs))

    artifact = {
        "bench_smoke": 1,
        "env": SMOKE_ENV,
        "tolerance": tolerance,
        "metrics": metrics,
        # Contention/reclamation trajectory columns (never gated); the
        # retries total is the report's own derived counter.
        "obs": obs,
    }
    with open(args.out, "w") as f:
        json.dump(artifact, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out} ({len(metrics)} metrics, {len(obs)} obs rows)")

    if args.check:
        if not os.path.exists(args.baseline):
            print(f"no baseline at {args.baseline}; skipping the gate")
            return 0
        failures = check(metrics, args.baseline, tolerance)
        if failures:
            print("bench smoke FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print("bench smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
