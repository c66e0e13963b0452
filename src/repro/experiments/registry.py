"""Experiment registry: every experiment is data.

Each experiment module registers three module-level parts::

    register_experiment("fig6", "Figure 6: SP/DP/FP relative performance",
                        cells=points, measure=measure,
                        assemble=Figure6Result.assemble,
                        expectation=PAPER_EXPECTATION)

* ``cells(options, **shape)`` builds the experiment's picklable cells
  from :class:`~repro.experiments.config.ExperimentOptions` and shape
  keywords, in grid order (a figure's graph points, a sweep's
  scenarios);
* ``measure(cell) -> row`` measures one cell inside a worker, so it is
  a module-level function;
* ``assemble(options, cells, rows) -> result`` builds the result — an
  object with a ``table()`` method — from the rows, in grid order.

A serving sweep whose cells are its ``SweepSpec`` grids registers
``cells=sweep_cells(sweep_specs)``.

The runner (:mod:`repro.experiments.runner`) iterates :data:`REGISTRY`:
it collects the cells of every selected experiment and measures each
distinct cell once, through one pool.  An entry also records the
experiment's id, description and paper expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .config import DISK_TABLE, NETWORK_TABLE
from .reporting import format_table

__all__ = ["Experiment", "REGISTRY", "register_experiment", "sweep_cells"]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment (see module docstring)."""

    name: str
    description: str
    cells: Callable
    #: None for an experiment with no cells.
    measure: Optional[Callable]
    assemble: Callable
    expectation: str = ""


#: experiment id -> :class:`Experiment`, in registration order (which the
#: runner's import order makes the paper's presentation order).
REGISTRY: dict[str, Experiment] = {}


def register_experiment(name: str, description: str, *, cells: Callable,
                        measure: Optional[Callable], assemble: Callable,
                        expectation: str = "") -> None:
    """Register ``name``'s parts (see module docstring)."""
    existing = REGISTRY.get(name)
    if (existing is not None
            and assemble.__module__ != existing.assemble.__module__):
        raise ValueError(f"experiment {name!r} registered twice")
    # The same module re-imported (e.g. importlib.reload) refreshes its
    # entry in place — dict assignment keeps the presentation order.
    REGISTRY[name] = Experiment(
        name=name, description=description, cells=cells, measure=measure,
        assemble=assemble, expectation=expectation,
    )


def sweep_cells(build: Callable) -> Callable:
    """A ``cells`` builder over ``build(options, **shape)``, which returns
    one :class:`~repro.api.sweep.SweepSpec` or a sequence of them: every
    grid's cells, flattened in grid order."""
    def cells(options, **shape) -> tuple:
        sweeps = build(options, **shape)
        if hasattr(sweeps, "cells"):
            sweeps = (sweeps,)
        return tuple(cell for sweep in sweeps for cell in sweep.cells())
    return cells


class ParameterTables:
    """The static Section 5.1.1 tables: an experiment with no cells."""

    def table(self) -> str:
        return (
            format_table(["Network Parameters", "Values"], NETWORK_TABLE,
                         title="Section 5.1.1 network parameters")
            + "\n\n"
            + format_table(["Disk Parameters", "Values"], DISK_TABLE,
                           title="Section 5.1.1 disk parameters")
        )


register_experiment(
    "params",
    "Section 5.1.1 parameter tables",
    cells=lambda options: (),
    measure=None,
    assemble=lambda options, cells, rows: ParameterTables(),
    expectation="Reproduced verbatim as defaults.",
)
