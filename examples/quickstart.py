"""Quickstart: the shipped Section 3.3 two-node join under DP (the paper's
model) and FP; SP is shared-memory-only and needs a one-node cluster.
Run with ``PYTHONPATH=src python examples/quickstart.py``."""

from pathlib import Path

import repro
from repro.api import ScenarioSpec, replace_path

SCENARIO = Path(__file__).parent / "scenarios" / "single_query.json"

if __name__ == "__main__":
    spec = ScenarioSpec.from_json(SCENARIO.read_text())
    print(f"{'strategy':>8}  {'response':>10}  {'idle':>6}  {'results':>8}")
    for strategy in ("DP", "FP"):
        result = repro.run_query(replace_path(spec, "workload.strategy", strategy))
        print(f"{strategy:>8}  {result.response_time:>9.4f}s "
              f"{result.metrics.idle_fraction():>6.1%} "
              f"{result.metrics.result_tuples:>8}")
