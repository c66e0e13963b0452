"""Run the full evaluation and write EXPERIMENTS.md.

Usage (installed as ``repro-experiments`` via ``pip install -e .``)::

    repro-experiments                      # everything, default options
    repro-experiments --only fig6 fig9     # a subset (validated up front)
    repro-experiments --plans 12           # fewer plans per point (faster)
    repro-experiments --quick              # smallest meaningful setting
    repro-experiments --parallel 0         # one pool, one worker per core
    repro-experiments --output results.md  # where to write the report

The report is one job set.  The set of experiments is the
:data:`~repro.experiments.registry.REGISTRY`; :func:`run_all` collects
the cells of every selected experiment, keys each by its ``measure``
function and its canonical JSON, measures every distinct key once
through one :func:`~repro.api.sweep.parallel_map` call (``--parallel``
sizes that one pool) and hands each experiment its rows in its own grid
order — so fig8 reads fig6's points instead of re-simulating them.  The
combined report records paper-vs-measured for each experiment.
:func:`run_experiment` runs one experiment the same way.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import Optional

from ..api.serde import encode
from ..api.sweep import parallel_map

# Importing the experiment modules populates the registry, in the
# paper's presentation order ("params" registers with the registry
# itself, ahead of these).
from . import (figure6, figure7, figure8, figure9, figure10, section53,  # noqa: F401
               workload_sweep, service_class_sweep, trace_replay,  # noqa: F401
               elastic, overload, placement)  # noqa: F401
from .config import ExperimentOptions
from .registry import REGISTRY as EXPERIMENTS

__all__ = ["main", "run_all", "run_experiment", "EXPERIMENTS"]


def _timed(job: tuple) -> tuple:
    """Worker: measure one cell, and how long that took."""
    measure, cell = job
    started = time.perf_counter()
    row = measure(cell)
    return row, time.perf_counter() - started


def measure_cells(planned: list, processes: Optional[int] = None) -> list:
    """Measure ``[(experiment, cells)]`` as one job set.

    Returns, per entry, ``(rows, shared, seconds)``: the rows in the
    entry's cell order, how many of its cells an earlier cell already
    named, and the measuring time of the cells it named first.
    """
    def key_of(experiment, cell) -> tuple:
        return experiment.measure, json.dumps(encode(cell), sort_keys=True)

    jobs = {}
    for experiment, cells in planned:
        for cell in cells:
            jobs.setdefault(key_of(experiment, cell), (experiment.measure, cell))
    measured = dict(zip(jobs, parallel_map(_timed, jobs.values(), processes)))
    outcomes, seen = [], set()
    for experiment, cells in planned:
        keys = [key_of(experiment, cell) for cell in cells]
        first = [key for key in dict.fromkeys(keys) if key not in seen]
        seen.update(keys)
        outcomes.append(([measured[key][0] for key in keys],
                         len(keys) - len(first),
                         sum(measured[key][1] for key in first)))
    return outcomes


def run_experiment(name: str, options: Optional[ExperimentOptions] = None,
                   processes: Optional[int] = None, **shape):
    """Build, measure and assemble one experiment; ``shape`` is its
    ``cells`` builder's keywords, ``processes`` the pool size (None =
    sequential, 0 = one worker per core)."""
    experiment = EXPERIMENTS[name]
    options = options or ExperimentOptions()
    cells = experiment.cells(options, **shape)
    ((rows, _shared, _seconds),) = measure_cells([(experiment, cells)],
                                                 processes)
    return experiment.assemble(options, cells, rows)


def run_all(options: Optional[ExperimentOptions] = None,
            only: Optional[list[str]] = None,
            output: Optional[str] = None,
            echo: bool = True,
            processes: Optional[int] = None) -> str:
    """Run the selected experiments (each named id once, in first-seen
    order) and return the combined report.

    ``processes`` sizes the one pool every cell of the report fans over
    (None = sequential, 0 = one worker per core).
    """
    options = options or ExperimentOptions()
    selected = list(dict.fromkeys(only or EXPERIMENTS))
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments {unknown}; known: {list(EXPERIMENTS)}")
    planned = [(EXPERIMENTS[name], EXPERIMENTS[name].cells(options))
               for name in selected]
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
    for (experiment, cells), (rows, shared, seconds) in zip(
            planned, measure_cells(planned, processes)):
        table = experiment.assemble(options, cells, rows).table()
        block = (
            f"## {experiment.name}: {experiment.description}\n\n"
            f"**Paper expectation.** {experiment.expectation}\n\n"
            f"**Measured** ({len(cells)} cells ({shared} shared), "
            f"cell time {seconds:.0f}s):\n\n"
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
                        help="measure the report's cells in one pool of N "
                             "processes (0 = one per core)")
    parser.add_argument("--output", default="EXPERIMENTS.md",
                        help="report path (default EXPERIMENTS.md)")
    args = parser.parse_args(argv)

    if args.list:
        for experiment in EXPERIMENTS.values():
            print(f"{experiment.name}: {experiment.description}")
        return 0

    options = ExperimentOptions.quick() if args.quick else ExperimentOptions()
    for flag in ("plans", "scale"):
        value = getattr(args, flag)
        if value is not None:
            try:
                options = replace(options, **{flag: value})
            except ValueError as exc:
                parser.error(f"argument --{flag}: {exc}")
    run_all(options, only=args.only, output=args.output,
            processes=args.parallel)
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
