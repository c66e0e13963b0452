"""Benchmark: overload sweep throughput + graceful-degradation gate.

Runs the ``overload`` experiment's load sweep (1x / 2x the calibrated
base rate, both client/serving regimes) and emits
``BENCH_overload.json``.  Two things are gated here:

* **throughput** — attempts resolved per wall second across the sweep,
  mirrored under ``events_per_second`` for the generic regression gate
  (``scripts/check_bench_regression.py``);
* **the degradation contract itself** — the graceful
  regime (bounded jittered retries, preemptive memory management,
  targeted broker) must hold >= 80% of its peak goodput at 2x offered
  load, while the naive regime (infinite fast retries) collapses below
  that bar.  A change that quietly breaks the overload machinery fails
  this bench even if every unit test still passes.

``OVERLOAD_QUERIES`` scales the logical queries per sweep cell (default
96; enough for the retry storm to reach its metastable regime).
"""

import json
import os
import time
from pathlib import Path

from repro.experiments.config import ExperimentOptions
from repro.experiments.overload import run as run_overload

#: logical queries per sweep cell.
QUERIES = int(os.environ.get("OVERLOAD_QUERIES", "96"))

#: offered-load multipliers measured here — the peak region plus the
#: deep-overload acceptance point.
MULTIPLIERS = (1.0, 2.0)

OUTPUT = Path(__file__).with_name("BENCH_overload.json")


def run_sweep() -> dict:
    """One full sweep; returns its measured row."""
    start = time.perf_counter()
    result = run_overload(ExperimentOptions.quick(), multipliers=MULTIPLIERS,
                          queries_per_cell=QUERIES)
    wall = time.perf_counter() - start
    attempts = sum(row.completed + row.retries + row.gave_up
                   for row in result.rows)
    return {
        "wall_seconds": round(wall, 3),
        "attempts": attempts,
        "attempts_per_second": round(attempts / wall, 2),
        "goodput": {
            f"{row.regime}_{row.multiplier:g}x": round(row.goodput, 4)
            for row in result.rows
        },
        "p95_client_latency": {
            f"{row.regime}_{row.multiplier:g}x":
                round(row.p95_client_latency, 2)
            for row in result.rows
        },
        "retention_2x": {
            regime: round(result.cell(regime=regime, multiplier=2.0).goodput
                          / result.peak_goodput(regime), 4)
            for regime in ("graceful", "naive")
        },
    }


def test_overload_degradation(benchmark):
    row = benchmark.pedantic(run_sweep, rounds=1, iterations=1,
                             warmup_rounds=0)
    report = {
        "queries_per_cell": QUERIES,
        "multipliers": list(MULTIPLIERS),
        "sweep": row,
        # Flat mirror of the headline rate so the generic regression
        # gate (scripts/check_bench_regression.py) picks it up.
        "events_per_second": {"overload": row["attempts_per_second"]},
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    retention = row["retention_2x"]
    print()
    print(f"  {row['attempts_per_second']:,} attempts/s "
          f"({row['wall_seconds']}s wall); 2x retention "
          f"graceful {retention['graceful']:.0%}, "
          f"naive {retention['naive']:.0%}")
    # The graceful-degradation acceptance contract.
    assert retention["graceful"] >= 0.8, (
        f"graceful regime lost its overload flatness "
        f"({retention['graceful']:.0%} of peak at 2x)"
    )
    assert retention["naive"] < 0.8, (
        f"naive retry storm no longer collapses "
        f"({retention['naive']:.0%} of peak at 2x)"
    )
    goodput = row["goodput"]
    assert goodput["graceful_2x"] > goodput["naive_2x"]
