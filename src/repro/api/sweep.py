"""Sweeps as data: axes over a base scenario, one generic grid runner.

A :class:`SweepSpec` is a base :class:`~repro.api.spec.ScenarioSpec`
plus ordered axes — ``{"params.cpu_discipline": ["fifo", "priority"],
"mpl": [2, 8]}`` — whose cross product materializes into concrete
scenario cells (first axis outermost, matching nested-loop order).  An
axis is either

* a dotted field path, applied with :func:`~repro.api.spec.
  replace_path` (any knob of the spec tree is sweepable by name), or
* a macro for the coupled knobs every sweep re-derives by hand:

  - ``"mpl"`` — the multiprogramming level: sets the closed-loop client
    population *and* the admission cap together;
  - ``"skew"`` — ``params.skew`` as a uniform redistribution Zipf theta
    (the paper's Figure 9/10 convention);
  - ``"strategy"`` — shorthand for ``workload.strategy``.

:func:`run_sweep` executes the grid: cells fan over
:func:`parallel_map` and an optional module-level ``collect`` function
reduces each :class:`~repro.api.facade.RunResult` to a row *inside the
worker*, so only rows cross the process boundary.  Results are
identical to the sequential run by construction — each cell builds its
own :class:`~repro.sim.core.Environment` from its own seed and never
touches another cell's state, and the virtual-time kernel is
single-threaded, so one simulation per process is the only way to use a
multi-core host.

``processes`` (what a CLI's ``--parallel N`` passes through):

* ``None``  — sequential in-process execution (the default: timings
  stay comparable, and nested pools are impossible);
* ``0``     — one worker per available core;
* ``n >= 1``— exactly ``n`` workers.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence

from ..catalog.skew import SkewSpec
from .facade import RunResult, run
from .serde import SpecError, dumps, encode
from .spec import ScenarioSpec, get_path, replace_path

__all__ = [
    "AXIS_MACROS",
    "SweepSpec",
    "apply_axis",
    "parallel_map",
    "resolve_processes",
    "run_scenarios",
    "run_sweep",
    "sweep_table",
]


def _set_mpl(scenario: ScenarioSpec, value: Any) -> ScenarioSpec:
    scenario = replace_path(scenario, "workload.arrival.population", value)
    return replace_path(scenario, "workload.policy.max_multiprogramming", value)


def _set_skew(scenario: ScenarioSpec, value: Any) -> ScenarioSpec:
    return replace_path(
        scenario,
        "params.skew",
        SkewSpec(redistribution=value),
    )


def _set_strategy(scenario: ScenarioSpec, value: Any) -> ScenarioSpec:
    return replace_path(scenario, "workload.strategy", value)


#: named axes for knobs that are coupled or nested (see module docstring).
AXIS_MACROS: dict[str, Callable[[ScenarioSpec, Any], ScenarioSpec]] = {
    "mpl": _set_mpl,
    "skew": _set_skew,
    "strategy": _set_strategy,
}


def apply_axis(scenario: ScenarioSpec, axis: str, value: Any) -> ScenarioSpec:
    """One axis assignment: a macro by name, else a dotted field path."""
    macro = AXIS_MACROS.get(axis)
    if macro is not None:
        return macro(scenario, value)
    return replace_path(scenario, axis, value)


@dataclass(frozen=True)
class SweepSpec:
    """A serializable sweep: base scenario × ordered value axes."""

    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    #: ordered ``(axis, values)`` pairs; a dict normalizes on construction.
    axes: tuple[tuple[str, tuple], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        pairs = self.axes.items() if isinstance(self.axes, dict) else self.axes
        normalized = tuple((str(axis), tuple(values)) for axis, values in pairs)
        for axis, values in normalized:
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            if axis not in AXIS_MACROS:
                # Fail at load, not at the first cell, on an axis
                # naming no field.
                get_path(self.base, axis)
        object.__setattr__(self, "axes", normalized)

    # -- materialization ----------------------------------------------------

    def points(self) -> tuple[dict, ...]:
        """The grid coordinates, row-major (first axis outermost)."""
        names = [axis for axis, _values in self.axes]
        combos = itertools.product(*(values for _axis, values in self.axes))
        return tuple(dict(zip(names, combo)) for combo in combos)

    def cell(self, point: dict) -> ScenarioSpec:
        """The concrete scenario at one grid coordinate."""
        scenario = self.base
        for axis, value in point.items():
            scenario = apply_axis(scenario, axis, value)
        return scenario

    def cells(self) -> tuple[ScenarioSpec, ...]:
        """Every concrete scenario of the grid, in :meth:`points` order."""
        return tuple(self.cell(point) for point in self.points())

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict:
        axes: dict[str, list] = {}
        for axis, values in self.axes:
            for value in values:
                if value is None or isinstance(value, (bool, int, float, str)):
                    continue
                raise SpecError(
                    f"axis {axis!r} holds a non-scalar value "
                    f"{value!r}; serialized sweeps take JSON scalars "
                    "(macros expand them at apply time)",
                )
            axes[axis] = list(values)
        return {"base": encode(self.base), "axes": axes, "label": self.label}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise SpecError(
                f"expected an object for SweepSpec, got {type(data).__name__}",
            )
        unknown = sorted(set(data) - {"base", "axes", "label"})
        if unknown:
            raise SpecError(
                f"unknown key(s) {unknown} for SweepSpec; "
                "known: ['axes', 'base', 'label']",
            )
        axes = data.get("axes", {})
        if not isinstance(axes, dict):
            raise SpecError("SweepSpec axes must be an object of value lists")
        pairs = []
        for axis, values in axes.items():
            if not isinstance(values, (list, tuple)):
                raise SpecError(
                    f"axis {axis!r} must map to an array of values, "
                    f"got {type(values).__name__}",
                )
            pairs.append((axis, tuple(values)))
        return cls(
            base=ScenarioSpec.from_dict(data.get("base", {})),
            axes=tuple(pairs),
            label=str(data.get("label", "")),
        )

    def to_json(self, indent: int = 2) -> str:
        return dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)


def resolve_processes(processes: Optional[int]) -> int:
    """Normalize the ``processes`` convention to a worker count."""
    if processes is None:
        return 1
    if processes <= 0:
        return os.cpu_count() or 1
    return processes


def parallel_map(
    fn: Callable,
    items: Iterable,
    processes: Optional[int] = None,
) -> list:
    """Map ``fn`` over ``items`` across worker processes, order preserved.

    Sequential (and pool-free) when ``processes`` resolves to one worker
    or there is at most one item, so the degenerate cases behave exactly
    like a list comprehension — same results, same exceptions.  The pool
    uses ``fork`` where the platform offers it (workers inherit the
    imported modules and compiled plans for free) and ``spawn``
    elsewhere, which is why ``fn`` must be a module-level function with
    picklable arguments.
    """
    items = list(items)
    count = min(resolve_processes(processes), len(items))
    if count <= 1:
        return [fn(item) for item in items]
    # Imported here, not at module level: ``import repro.api`` is on the
    # path every ``repro-run`` pays, and only a real fan-out needs it.
    import multiprocessing as mp

    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    with mp.get_context(method).Pool(processes=count) as pool:
        # chunksize 1: cells are few and coarse; tail latency matters
        # more than task-dispatch overhead.
        return pool.map(fn, items, chunksize=1)


def _run_one(
    scenario: ScenarioSpec,
    collect: Optional[Callable[[RunResult], Any]] = None,
) -> Any:
    """Worker: run one cell and reduce it in-process."""
    result = run(scenario)
    return collect(result) if collect is not None else result


def run_scenarios(
    scenarios: Iterable[ScenarioSpec],
    processes: Optional[int] = None,
    collect: Optional[Callable[[RunResult], Any]] = None,
) -> list:
    """Run independent scenarios, optionally fanned across processes.

    ``collect`` must be a module-level function when ``processes`` spawns
    workers (it travels by reference); it receives each cell's
    :class:`~repro.api.facade.RunResult` and its return value is what
    crosses the process boundary.
    """
    return parallel_map(
        partial(_run_one, collect=collect),
        list(scenarios),
        processes=processes,
    )


def run_sweep(
    sweep: SweepSpec,
    processes: Optional[int] = None,
    collect: Optional[Callable[[RunResult], Any]] = None,
) -> list:
    """Materialize a sweep's cells and run them (see :func:`run_scenarios`)."""
    return run_scenarios(sweep.cells(), processes=processes, collect=collect)


def sweep_table(sweep: SweepSpec, rows: Sequence[Any]) -> list[tuple[dict, Any]]:
    """Zip grid coordinates with their rows — ``(point, row)`` pairs."""
    points = sweep.points()
    if len(points) != len(rows):
        raise ValueError(
            f"sweep has {len(points)} cells but {len(rows)} rows were given",
        )
    return list(zip(points, rows))
