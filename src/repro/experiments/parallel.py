"""Multiprocessing fan-out for independent sweep cells.

The serving-layer sweeps (:mod:`repro.experiments.workload_sweep`,
:mod:`repro.experiments.service_class_sweep`) are grids of *independent*
cells: each (MPL × skew × discipline/strategy) point builds its own
:class:`~repro.sim.core.Environment` from its own seed and never touches
another cell's state.  That makes them embarrassingly parallel — the
virtual-time kernel is single-threaded by design (and pinned by the
GIL), so the only way to use a multi-core host is one simulation per
process.

:func:`parallel_map` is the one primitive: map a module-level worker
function over picklable cell specs, preserving order.  Results are
identical to the sequential run *by construction* — determinism lives in
the per-cell seeds, not in cross-cell execution order — which
``tests/test_api_sweep.py`` pins.

Processes semantics (shared by every sweep CLI's ``--parallel`` flag):

* ``None``  — sequential in-process execution (the default: benches and
  CI timings stay comparable, and nested pools are impossible);
* ``0``     — one worker per available core;
* ``n >= 1``— exactly ``n`` workers.

The pool uses the ``fork`` start method where the platform offers it
(workers inherit the already-imported modules and compiled plans for
free) and falls back to ``spawn`` elsewhere, which is why workers must
be module-level functions with picklable arguments.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Callable, Iterable, Optional, TypeVar

__all__ = ["available_processes", "resolve_processes", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def available_processes() -> int:
    """Worker count for ``processes=0``: one per core the host exposes."""
    return os.cpu_count() or 1


def resolve_processes(processes: Optional[int]) -> int:
    """Normalize the shared ``--parallel`` convention to a worker count."""
    if processes is None:
        return 1
    if processes <= 0:
        return available_processes()
    return processes


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 processes: Optional[int] = None) -> list[R]:
    """Map ``fn`` over ``items`` across worker processes, order preserved.

    Sequential (and pool-free) when ``processes`` resolves to one worker
    or there is at most one item, so the degenerate cases behave exactly
    like a list comprehension — same results, same exceptions.
    """
    items = list(items)
    count = min(resolve_processes(processes), len(items))
    if count <= 1:
        return [fn(item) for item in items]
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    context = mp.get_context(method)
    with context.Pool(processes=count) as pool:
        # chunksize 1: cells are few and coarse; tail latency matters
        # more than task-dispatch overhead.
        return pool.map(fn, items, chunksize=1)
