#!/usr/bin/env python
"""Byte-for-byte determinism gate for the single-query experiments.

FIFO bit-identity is the repo's strongest regression guard: with the
default disciplines, figure and scenario outputs must be deterministic
functions of their seeds — identical across runs *and* identical to the
committed baseline (``baselines/determinism.txt``).

Modes:

* default — run the report twice in fresh interpreters, fail unless the
  two outputs are byte-identical and match the committed baseline;
* ``--emit`` — print the canonical report to stdout (used internally);
* ``--update`` — rewrite the committed baseline (run after a PR that
  intentionally changes simulated timings, and say so in the PR).
"""

import argparse
import difflib
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "baselines" / "determinism.txt"


def emit() -> str:
    """The canonical determinism report (no wall times, no environment)."""
    from repro.catalog.skew import SkewSpec
    from repro.engine import QueryExecutor
    from repro.experiments import (
        elastic,
        figure6,
        figure9,
        figure10,
        placement,
        section53,
    )
    from repro.experiments.config import ExperimentOptions, scaled_execution_params
    from repro.workloads.scenarios import (
        pipeline_chain_scenario,
        two_node_join_scenario,
    )

    options = ExperimentOptions.quick()
    sections = []
    for name, module in (
        ("figure6", figure6),
        ("figure9", figure9),
        ("figure10", figure10),
        ("section53", section53),
    ):
        # One worker per core: a point's rows do not depend on which
        # process measured it.
        table = module.run(options, processes=0).table()
        sections.append(f"== {name} ==\n{table}\n")

    lines = ["== scenarios =="]
    for label, scenario in (
        ("chain", pipeline_chain_scenario),
        ("two-node", two_node_join_scenario),
    ):
        plan, config = scenario()
        for strategy in ("DP", "FP"):
            params = scaled_execution_params(
                skew=SkewSpec.uniform_redistribution(0.8),
                seed=7,
            )
            result = QueryExecutor(plan, config, strategy=strategy, params=params).run()
            metrics = result.metrics
            lines.append(
                f"{label} {strategy}: response={result.response_time!r} "
                f"results={metrics.result_tuples} "
                f"activations={metrics.activations_processed} "
                f"bytes={metrics.bytes_sent} steals={metrics.steal_rounds}"
            )
    sections.append("\n".join(lines) + "\n")

    # Elastic membership and placement policies: each digest pins the
    # discrete outcomes, then the timing floats (and steal traffic).
    sections.append(f"== elastic ==\n{elastic.run(options).digest()}\n")
    # A reduced grid (one regime, three policies, both steal modes).
    sections.append(f"== placement ==\n{placement.determinism_digest(options)}\n")
    return "\n".join(sections)


def run_emit() -> str:
    """One report from a fresh interpreter (no shared caches)."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


def show_diff(a: str, b: str, a_name: str, b_name: str) -> None:
    diff = difflib.unified_diff(
        a.splitlines(keepends=True),
        b.splitlines(keepends=True),
        fromfile=a_name,
        tofile=b_name,
    )
    sys.stderr.writelines(diff)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--emit", action="store_true")
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()

    if args.emit:
        sys.path.insert(0, str(REPO / "src"))
        sys.stdout.write(emit())
        return 0

    if args.update:
        sys.path.insert(0, str(REPO / "src"))
        BASELINE.parent.mkdir(parents=True, exist_ok=True)
        BASELINE.write_text(emit())
        print(f"baseline written to {BASELINE}")
        return 0

    first = run_emit()
    second = run_emit()
    if first != second:
        print("FAIL: two identical runs produced different outputs", file=sys.stderr)
        show_diff(first, second, "run-1", "run-2")
        return 1
    if not BASELINE.exists():
        print(f"FAIL: missing committed baseline {BASELINE}", file=sys.stderr)
        return 1
    committed = BASELINE.read_text()
    if first != committed:
        # The baseline is interpreter-independent by contract: a failure
        # under one interpreter only means a float ``sum()`` (compensated
        # from 3.12 on) crept back into the engine or the metrics.
        print(
            "FAIL: output drifted from the committed baseline "
            "(rerun with --update only if the change is intentional)\n"
            f"interpreter: {sys.version}",
            file=sys.stderr,
        )
        show_diff(committed, first, "baseline", "fresh")
        return 1
    print("determinism check passed: 2 runs byte-identical, baseline matched")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
