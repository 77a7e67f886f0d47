#!/usr/bin/env python3
"""kiwi_top: live terminal viewer for the KiWi metrics-pump JSONL stream.

Tails the JSONL telemetry a KiWiMap's metrics pump emits (one JSON object
per line, marked by "kiwi_metrics": 2; see docs/OBSERVABILITY.md) and
renders a refreshing dashboard: operation rates, the contention (retry)
rate, EBR health, and the chunk fill-factor histogram.

    KIWI_METRICS=1s build/bench/fig4_mixed --maps=kiwi | scripts/kiwi_top.py
    KIWI_METRICS=250ms:/tmp/kiwi.jsonl build/bench/micro_ops &
    scripts/kiwi_top.py -f /tmp/kiwi.jsonl

Input comes from stdin (pipe mode) or a file (-f follows it, tail -F
style).  Lines that are not kiwi_metrics objects — bench CSV rows, notes —
are ignored, so piping a whole bench's stdout through is fine.

Renders with curses when stdout is a tty, falling back to plain-text
dashboards (one block per sample) otherwise or with --plain.  Pure
standard library; no dependencies.
"""
import argparse
import json
import os
import sys
import time

OP_FIELDS = ("puts", "removes", "gets", "scans", "rebalances")

FILL_BAR_WIDTH = 30


def parse_sample(line):
    """The kiwi_metrics dict for a JSONL line, or None for foreign lines."""
    line = line.strip()
    if not line.startswith("{"):
        return None
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if not isinstance(obj, dict) or obj.get("kiwi_metrics") != 2:
        return None
    return obj


def iter_lines(args):
    """Yield input lines from stdin or a (followed) file."""
    if args.file is None:
        for line in sys.stdin:
            yield line
        return
    with open(args.file, "r") as handle:
        while True:
            line = handle.readline()
            if line:
                yield line
            elif args.follow:
                time.sleep(0.1)
            else:
                return


def fmt_rate(value):
    if value >= 1e6:
        return "%.2fM/s" % (value / 1e6)
    if value >= 1e3:
        return "%.1fk/s" % (value / 1e3)
    return "%.1f/s" % value


def fmt_bytes(value):
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return "%.1f%s" % (value, unit)
        value /= 1024.0
    return "?"


def render_rows(sample):
    """The dashboard as a list of text rows (shared by both frontends)."""
    rates = sample.get("rates", {})
    gauges = sample.get("gauges", {})
    census = sample.get("census", {})
    rows = []
    rows.append(
        "kiwi_top — pump %s seq %s  uptime %.1fs  interval %.2fs%s"
        % (
            sample.get("pump", "?"),
            sample.get("seq", "?"),
            sample.get("uptime_s", 0.0),
            sample.get("interval_s", 0.0),
            "" if sample.get("stats_enabled", True) else "  [KIWI_STATS=OFF]",
        )
    )
    rows.append("")
    ops = "  ".join(
        "%s %s" % (name, fmt_rate(rates.get(name, 0.0))) for name in OP_FIELDS
    )
    rows.append("ops:      " + ops)
    # The pump's derived total over the retried-CAS counters.
    rows.append("retries:  %s" % fmt_rate(rates.get("retries", 0.0)))
    rows.append(
        "ebr:      epoch %s  lag %s  pending %s (%s)"
        % (
            gauges.get("ebr_epoch", 0),
            gauges.get("ebr_epoch_lag", 0),
            gauges.get("ebr_pending", 0),
            fmt_bytes(float(gauges.get("ebr_pending_bytes", 0))),
        )
    )
    rows.append(
        "memory:   %s  chunks %s  avg_fill %.2f  engaged %s"
        % (
            fmt_bytes(float(gauges.get("memory_bytes", 0))),
            census.get("chunks", 0),
            census.get("avg_fill", 0.0),
            census.get("engaged", 0),
        )
    )
    rows.append("")
    rows.append("chunk fill-factor histogram (deciles):")
    hist = census.get("fill_hist", [])
    peak = max(hist) if hist else 0
    for i, count in enumerate(hist):
        width = int(round(FILL_BAR_WIDTH * count / peak)) if peak else 0
        rows.append(
            "  %3d-%3d%% %-*s %d"
            % (i * 10, (i + 1) * 10, FILL_BAR_WIDTH, "#" * width, count)
        )
    return rows


def run_plain(args):
    seen = 0
    try:
        for line in iter_lines(args):
            sample = parse_sample(line)
            if sample is None:
                continue
            seen += 1
            print("\n".join(render_rows(sample)))
            print("-" * 60)
            sys.stdout.flush()
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe: a clean exit, not an
        # error.  Unhook stdout so the interpreter's flush doesn't re-raise.
        sys.stdout = open(os.devnull, "w")
    except KeyboardInterrupt:
        pass
    return 0 if seen else 1


def run_curses(args):
    import curses

    def loop(screen):
        curses.use_default_colors()
        screen.nodelay(False)
        for line in iter_lines(args):
            sample = parse_sample(line)
            if sample is None:
                continue
            screen.erase()
            max_y, max_x = screen.getmaxyx()
            for y, row in enumerate(render_rows(sample)):
                if y >= max_y:
                    break
                screen.addnstr(y, 0, row, max_x - 1)
            screen.refresh()

    try:
        curses.wrapper(loop)
    except KeyboardInterrupt:
        pass
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-f",
        "--file",
        default=None,
        help="JSONL file to tail (default: read stdin)",
    )
    parser.add_argument(
        "--no-follow",
        dest="follow",
        action="store_false",
        help="with -f: stop at EOF instead of waiting for more samples",
    )
    parser.add_argument(
        "--plain",
        action="store_true",
        help="print one text block per sample instead of the curses UI",
    )
    args = parser.parse_args()

    use_curses = not args.plain and sys.stdout.isatty()
    if use_curses:
        try:
            return run_curses(args)
        except ImportError:
            pass  # no curses on this platform: fall through
    return run_plain(args)


if __name__ == "__main__":
    sys.exit(main())
