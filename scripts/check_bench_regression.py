#!/usr/bin/env python
"""Benchmark-throughput regression gate.

Compares freshly generated benchmark JSON files against their committed
baselines and fails when any ``events_per_second`` rate dropped by more
than ``--max-drop`` (default 25%).  Improvements and small fluctuations
pass; a real regression does not.

Rates are discovered generically: every numeric leaf that sits under an
``events_per_second`` key — whether a flat mapping
(``BENCH_kernel.json``) or nested per-cell fields — is gated, so new
entries are picked up without touching this script.

Per-file required entries catch a different failure: silently *dropping*
a gated workload from a bench (rather than regressing it) also fails.

A missing or empty baseline file is skipped with a note — that is the
expected state for the first commit that introduces a new benchmark.

Usage::

    python scripts/check_bench_regression.py \\
        --pair /tmp/BENCH_kernel.baseline.json benchmarks/BENCH_kernel.json \\
        --pair /tmp/BENCH_overload.baseline.json benchmarks/BENCH_overload.json
"""

import argparse
import json
import sys
from pathlib import Path

#: entries that must be present in both files, keyed by the fresh file's
#: basename: the timer storm and one resource storm per scheduling
#: discipline (kernel), the replay rate (trace replay) and the overload
#: sweep rate.
REQUIRED = {
    "BENCH_kernel.json": (
        "timer", "resource_fifo", "resource_fair", "resource_priority",
    ),
    "BENCH_trace_replay.json": ("replay",),
    "BENCH_overload.json": ("overload",),
}


def extract_rates(doc) -> dict:
    """All numeric leaves under any ``events_per_second`` key.

    Entry names are the dotted JSON path with the ``events_per_second``
    component elided.
    """
    rates: dict = {}

    def walk(node, path, under) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (key,),
                     under or key == "events_per_second")
        elif under and isinstance(node, (int, float)):
            name = ".".join(p for p in path if p != "events_per_second")
            rates[name] = node

    walk(doc, (), False)
    return rates


def check_pair(baseline_path: Path, fresh_path: Path,
               max_drop: float) -> bool:
    """Gate one (baseline, fresh) file pair; returns True on failure."""
    print(f"== {fresh_path.name} ==")
    fresh_doc = json.loads(fresh_path.read_text())
    if not baseline_path.exists() or not baseline_path.read_text().strip():
        print("  note: no committed baseline yet; skipping "
              "(expected for a newly added benchmark)")
        return False
    try:
        baseline_doc = json.loads(baseline_path.read_text())
    except json.JSONDecodeError:
        print("  note: baseline is not valid JSON; skipping "
              "(expected for a newly added benchmark)")
        return False
    baseline = extract_rates(baseline_doc)
    fresh = extract_rates(fresh_doc)

    failed = False
    for name in REQUIRED.get(fresh_path.name, ()):
        for label, entries in (("baseline", baseline), ("fresh", fresh)):
            if name not in entries:
                print(
                    f"  FAIL {name}: required entry missing from the "
                    f"{label} benchmark output"
                )
                failed = True
    for name, before in sorted(baseline.items()):
        after = fresh.get(name)
        if after is None:
            print(f"  FAIL {name}: missing from the fresh benchmark output")
            failed = True
            continue
        drop = (before - after) / before if before else 0.0
        status = "FAIL" if drop > max_drop else "ok"
        print(
            f"  {status:4s} {name}: {before} -> {after} events/s "
            f"({-drop:+.1%} vs baseline, floor {-max_drop:.0%})"
        )
        failed = failed or status == "FAIL"
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pair", nargs=2, action="append", type=Path, default=[],
        metavar=("BASELINE", "FRESH"),
        help="a (baseline, fresh) JSON pair to gate; repeatable",
    )
    parser.add_argument("--baseline", type=Path,
                        help="single-pair mode baseline (with --fresh)")
    parser.add_argument("--fresh", type=Path,
                        help="single-pair mode fresh file (with --baseline)")
    parser.add_argument("--max-drop", type=float, default=0.25)
    args = parser.parse_args()

    pairs = [tuple(pair) for pair in args.pair]
    if args.baseline or args.fresh:
        if not (args.baseline and args.fresh):
            parser.error("--baseline and --fresh must be given together")
        pairs.append((args.baseline, args.fresh))
    if not pairs:
        parser.error("nothing to gate: give --pair (or --baseline/--fresh)")

    failed = False
    for baseline_path, fresh_path in pairs:
        failed = check_pair(baseline_path, fresh_path, args.max_drop) or failed
    if failed:
        print(
            f"benchmark throughput dropped more than {args.max_drop:.0%}; "
            "either fix the regression or re-baseline the affected "
            "BENCH_*.json with a justification in the PR",
            file=sys.stderr,
        )
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
