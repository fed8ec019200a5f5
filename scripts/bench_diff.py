#!/usr/bin/env python3
"""Compare two BENCH_partition.json artifacts and report regressions.

Usage:
    scripts/bench_diff.py OLD.json NEW.json [--gate] [--tolerance PCT]

Two artifacts are comparable only when they were produced under the same
`meta.hardware_concurrency` and `meta.smoke`: a 1-vCPU baseline and a
4-core run differ in which gates bind and in what the wall-clock numbers
measure, and a --smoke run times a fraction of the reps.  For any other
pair the script prints why and refuses to diff: exit 0 when warn-only,
exit 2 under --gate.

Otherwise it prints a table of the key perf metrics with old/new values and the
relative change, flagging each row as `ok`, `improved`, `regressed`, or
`new` (metric absent from the old artifact -- e.g. a bench section that
did not exist yet).  By default the script always exits 0: bench numbers
move with the host, so off the designated CI machine the diff is
informational.  With --gate, any `regressed` row beyond the tolerance
fails the run (exit 1), which is how CI pins the checked-in baseline.

Regression direction is per metric: ns/eval and us/search regress when
they go up; throughput and speedup regress when they go down.  The
tolerance (default 10%) absorbs run-to-run jitter; min-of-windows timing
in the bench keeps genuine changes well above that.
"""

import argparse
import json
import sys

# (json path, human name, direction) -- direction 'down' means lower is
# better, 'up' means higher is better.
METRICS = [
    (("eval", "reference_ns_per_eval"), "reference ns/eval", "down"),
    (("eval", "fast_ns_per_eval"), "fast ns/eval", "down"),
    (("delta", "delta_ns_per_eval"), "delta ns/eval", "down"),
    (("general", "searches_per_sec"), "general searches/sec", "up"),
    (("search", "single_thread_per_sec"), "search evals/sec", "up"),
    (("search", "linear_per_sec"), "linear searches/sec", "up"),
    (("exhaustive", "serial_ns_per_config"), "exhaustive serial ns/config",
     "down"),
    (("exhaustive", "speedup"), "exhaustive speedup", "up"),
    (("alloc", "allocations_per_eval"), "allocations/eval", "down"),
    (("rebind", "fresh_bind_ns_n1200"), "estimator + bind ns (1.2k PDUs)",
     "down"),
    (("rebind", "fresh_bind_ns_n60000"), "estimator + bind ns (60k PDUs)",
     "down"),
    (("rebind", "allocations"), "rebind allocations", "down"),
]


# Run conditions that must match for two artifacts to be comparable.
COMPARABLE_META = ("hardware_concurrency", "smoke")


def incomparable(old_doc, new_doc):
    """Return the reason two artifacts cannot be diffed, or None."""
    for key in COMPARABLE_META:
        old = old_doc.get("meta", {}).get(key)
        new = new_doc.get("meta", {}).get(key)
        if old != new:
            return f"meta.{key} differs: {old} (old) vs {new} (new)"
    return None


def lookup(doc, path):
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def classify(old, new, direction, tolerance):
    """Return (status, pct_change) for one metric row."""
    if old is None:
        return "new", None
    if old == 0:
        # Zero baselines (e.g. allocations/eval) must stay zero.
        return ("ok" if new == 0 else "regressed"), None
    change = (new - old) / abs(old)
    worse = change > tolerance if direction == "down" else change < -tolerance
    better = change < -tolerance if direction == "down" else change > tolerance
    if worse:
        return "regressed", change
    if better:
        return "improved", change
    return "ok", change


def fmt(value):
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.2f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="previous BENCH_partition.json")
    parser.add_argument("new", help="fresh BENCH_partition.json")
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 on any regression beyond tolerance (CI baseline host)")
    parser.add_argument(
        "--tolerance", type=float, default=10.0,
        help="relative tolerance in percent (default 10)")
    args = parser.parse_args()

    with open(args.old) as f:
        old_doc = json.load(f)
    with open(args.new) as f:
        new_doc = json.load(f)

    reason = incomparable(old_doc, new_doc)
    if reason is not None:
        print(f"not comparable, no diff: {reason}", file=sys.stderr)
        return 2 if args.gate else 0

    tolerance = args.tolerance / 100.0
    rows = []
    regressions = []
    for path, name, direction in METRICS:
        old = lookup(old_doc, path)
        new = lookup(new_doc, path)
        if new is None:
            # The new artifact dropped a section; that is a bench change,
            # not a perf change -- note it but never gate on it.
            rows.append((name, fmt(old), "-", "-", "missing"))
            continue
        status, change = classify(old, new, direction, tolerance)
        pct = "-" if change is None else f"{change * 100.0:+.1f}%"
        rows.append((name, fmt(old), fmt(new), pct, status))
        if status == "regressed":
            regressions.append(name)

    widths = [max(len(r[i]) for r in rows + [("metric", "old", "new",
                                              "change", "status")])
              for i in range(5)]
    header = ("metric", "old", "new", "change", "status")
    for row in (header,) + tuple(rows):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))

    if regressions:
        print(f"\nregressed: {', '.join(regressions)} "
              f"(tolerance {args.tolerance:.0f}%)", file=sys.stderr)
        if args.gate:
            return 1
        print("warn-only (set NETPART_BENCH_GATE=1 via tier1.sh --bench "
              "to gate)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
