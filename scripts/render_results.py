#!/usr/bin/env python3
"""Render the benches' CSV rows as ASCII charts (and obs reports as tables).

Every bench binary prints machine-readable rows of the form

    csv,<figure>,<series>,<x>,<y>,<unit>

alongside its human-readable notes.  This script groups them by figure and
draws one horizontal-bar chart per figure, so a full sweep can be eyeballed
without any plotting stack:

    for b in build/bench/*; do $b; done | tee bench_output.txt
    python3 scripts/render_results.py bench_output.txt

When a bench is run with --obs (or KIWI_BENCH_OBS=1) it additionally prints
one KiWiMap::DebugReport per run as

    obsjson,<figure>,<series>,<one-line JSON>

(the schema is documented in docs/OBSERVABILITY.md).  Those rows are
rendered as per-figure latency/counter tables after the charts.

Pure standard library; no dependencies.
"""
import json
import sys
from collections import defaultdict


BAR_WIDTH = 44

# Key counters worth showing per run; anything else stays in the JSON.
OBS_COUNTERS = (
    "puts", "gets", "scans", "rebalances", "puts_helped", "put_restarts",
)
OBS_GAUGES = ("ebr_pending",)
OBS_CENSUS = ("chunks", "batched_ratio")


def parse(lines):
    """csv rows -> (figure -> series -> [(x, y)], figure -> unit);
    obsjson rows -> figure -> [(series, report dict)]."""
    figures = defaultdict(lambda: defaultdict(list))
    units = {}
    reports = defaultdict(list)
    for line in lines:
        line = line.strip()
        if line.startswith("obsjson,"):
            parts = line.split(",", 2)
            if len(parts) != 3:
                continue
            figure_and_series = parts[1], parts[2]
            # The series itself may contain commas (e.g. "kiwi@a,d:16"), so
            # split the payload off the *last* field by finding the JSON
            # object start instead.
            payload_at = line.find(",{")
            if payload_at < 0:
                continue
            prefix = line[:payload_at].split(",", 2)
            if len(prefix) != 3:
                continue
            _, figure, series = prefix
            try:
                report = json.loads(line[payload_at + 1:])
            except json.JSONDecodeError:
                continue
            if "kiwi_debug_report" in report:
                reports[figure].append((series, report))
            continue
        if not line.startswith("csv,"):
            continue
        parts = line.split(",")
        if len(parts) != 6:
            continue
        _, figure, series, x_text, y_text, unit = parts
        try:
            x_value = float(x_text)
            y_value = float(y_text)
        except ValueError:
            continue
        figures[figure][series].append((x_value, y_value))
        units[figure] = unit
    return figures, units, reports


def format_x(x_value):
    if x_value == int(x_value):
        value = int(x_value)
        if value >= 1024 and value % 1024 == 0:
            return f"{value // 1024}K"
        return str(value)
    return f"{x_value:g}"


def render_figure(name, series_map, unit):
    print(f"\n=== {name}  [{unit}] ===")
    peak = max(
        (y for points in series_map.values() for _, y in points), default=0.0
    )
    if peak <= 0:
        peak = 1.0
    for series in sorted(series_map):
        points = sorted(series_map[series])
        print(f"  {series}")
        for x_value, y_value in points:
            bar = "#" * max(1, int(BAR_WIDTH * y_value / peak))
            print(f"    {format_x(x_value):>8} | {bar:<{BAR_WIDTH}} {y_value:g}")


def format_count(value):
    if value >= 10_000_000:
        return f"{value / 1e6:.0f}M"
    if value >= 10_000:
        return f"{value / 1e3:.0f}K"
    return str(value)


def render_reports(name, rows):
    """Latency percentiles and headline counters for one figure's runs."""
    print(f"\n=== {name}  [observability] ===")
    print(f"  {'series':<28} {'metric':<18} {'count':>7} "
          f"{'p50':>7} {'p99':>7} {'p999':>8} {'max':>9}  (ns)")
    for series, report in rows:
        latency = report.get("latency_ns", {})
        first = True
        for metric, summary in latency.items():
            if not summary.get("count"):
                continue
            label = series if first else ""
            first = False
            print(f"  {label:<28} {metric:<18} "
                  f"{format_count(summary['count']):>7} "
                  f"{summary['p50']:>7} {summary['p99']:>7} "
                  f"{summary['p999']:>8} {summary['max']:>9}")
        notes = []
        for section, keys in (("counters", OBS_COUNTERS),
                              ("census", OBS_CENSUS),
                              ("gauges", OBS_GAUGES)):
            values = report.get(section, {})
            notes += [f"{key}={values[key]:g}" if isinstance(values[key], float)
                      else f"{key}={format_count(values[key])}"
                      for key in keys if values.get(key)]
        if first:  # stats compiled out: no latency rows at all
            print(f"  {series:<28} (stats disabled: KIWI_STATS=OFF build)")
        if notes:
            print(f"  {'':<28} {'; '.join(notes)}")


def main(argv):
    if len(argv) > 1 and argv[1] in ("-h", "--help"):
        print(__doc__)
        return 0
    if len(argv) > 1:
        with open(argv[1], "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = sys.stdin.readlines()
    figures, units, reports = parse(lines)
    if not figures and not reports:
        print("no csv rows found (expected lines like csv,fig3get,kiwi,4,5.2,Mkeys/s)")
        return 1
    for name in sorted(figures):
        render_figure(name, figures[name], units.get(name, "?"))
    for name in sorted(reports):
        render_reports(name, reports[name])
    print(f"\n{sum(len(s) for s in figures.values())} series across "
          f"{len(figures)} figures; "
          f"{sum(len(r) for r in reports.values())} obs reports.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
