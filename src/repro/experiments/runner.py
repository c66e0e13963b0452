"""Run the full evaluation and write EXPERIMENTS.md.

Usage (installed as ``repro-experiments`` via ``pip install -e .``)::

    repro-experiments                      # everything, default options
    repro-experiments --only fig6 fig9     # a subset (validated up front)
    repro-experiments --plans 12           # fewer plans per point (faster)
    repro-experiments --quick              # smallest meaningful setting
    repro-experiments --parallel 0         # cells fan out, one per core
    repro-experiments --output results.md  # where to write the report

Every experiment prints its table to stdout as it completes and the
combined report records paper-vs-measured for each figure.  The set of
experiments is the :data:`~repro.experiments.registry.REGISTRY` — each
experiment module registers its ``run`` with
:func:`~repro.experiments.registry.register_experiment`; ``--parallel``
reaches every experiment (the static ``params`` table and the one-run
``traces`` round trip have nothing to fan out).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import Optional

# Importing the experiment modules populates the registry, in the
# paper's presentation order ("params" registers with the registry
# itself, ahead of these).
from . import (figure6, figure7, figure8, figure9, figure10, section53,  # noqa: F401
               workload_sweep, service_class_sweep, trace_replay,  # noqa: F401
               elastic, overload, placement)  # noqa: F401
from .config import ExperimentOptions
from .registry import REGISTRY as EXPERIMENTS

__all__ = ["main", "run_all", "EXPERIMENTS"]


def run_all(options: Optional[ExperimentOptions] = None,
            only: Optional[list[str]] = None,
            output: Optional[str] = None,
            echo: bool = True,
            processes: Optional[int] = None) -> str:
    """Run the selected experiments and return the combined report.

    ``processes`` is the worker count each experiment fans its
    independent cells over (None = sequential, 0 = one per core).
    """
    options = options or ExperimentOptions()
    selected = only or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments {unknown}; known: {list(EXPERIMENTS)}")
    sections = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction of *Dynamic Load Balancing in Hierarchical Parallel "
        "Database Systems* (Bouganim, Florescu, Valduriez, 1996).",
        "",
        f"Options: plans={options.plans}, scale={options.scale}, "
        f"workload queries={options.workload_queries}, seed={options.seed}.",
        "",
    ]
    for name in selected:
        experiment = EXPERIMENTS[name]
        started = time.perf_counter()
        table = experiment.table(options, processes=processes)
        elapsed = time.perf_counter() - started
        block = (
            f"## {name}: {experiment.description}\n\n"
            f"**Paper expectation.** {experiment.expectation}\n\n"
            f"**Measured** (wall {elapsed:.0f}s):\n\n"
            f"```\n{table}\n```\n"
        )
        sections.append(block)
        if echo:
            print(block)
            sys.stdout.flush()
    report = "\n".join(sections)
    if output:
        with open(output, "w") as handle:
            handle.write(report)
    return report


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures."
    )
    parser.add_argument("--list", action="store_true",
                        help="list registered experiments (one 'name: "
                             "description' line each) and exit")
    parser.add_argument("--only", nargs="+", default=None,
                        choices=list(EXPERIMENTS), metavar="EXPERIMENT",
                        help=f"subset of experiments: {list(EXPERIMENTS)}")
    parser.add_argument("--plans", type=int, default=None,
                        help="plans per measurement point (default 40)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (default 0.01; 1.0 = paper size)")
    parser.add_argument("--quick", action="store_true",
                        help="smallest meaningful setting (4 plans)")
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="fan each experiment's cells across N "
                             "processes (0 = one per core)")
    parser.add_argument("--output", default="EXPERIMENTS.md",
                        help="report path (default EXPERIMENTS.md)")
    args = parser.parse_args(argv)

    if args.list:
        for experiment in EXPERIMENTS.values():
            print(f"{experiment.name}: {experiment.description}")
        return 0

    options = ExperimentOptions.quick() if args.quick else ExperimentOptions()
    if args.plans is not None:
        options = replace(options, plans=args.plans)
    if args.scale is not None:
        options = replace(options, scale=args.scale)
    run_all(options, only=args.only, output=args.output,
            processes=args.parallel)
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
