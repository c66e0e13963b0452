"""Experiment registry: figures and sweeps register themselves as data.

Each experiment module decorates its ``run`` function::

    @register_experiment("fig6", "Figure 6: SP/DP/FP relative performance",
                         expectation=PAPER_EXPECTATION)
    def run(options=None, ...):
        ...

and the runner (:mod:`repro.experiments.runner`) iterates
:data:`REGISTRY` — no hand-maintained lambda table.  An entry records
the experiment's id, description and paper expectation.

The runner callable takes :class:`~repro.experiments.config.
ExperimentOptions` and ``processes`` (what ``repro-experiments
--parallel`` passes: the worker count its independent cells fan over)
and returns either a result object with a ``.table()`` method or a
plain string table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Experiment", "REGISTRY", "register_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment (see module docstring)."""

    name: str
    description: str
    runner: Callable
    expectation: str = ""

    def table(self, options, processes: Optional[int] = None) -> str:
        """Run and render."""
        result = self.runner(options, processes=processes)
        return result.table() if hasattr(result, "table") else str(result)


#: experiment id -> :class:`Experiment`, in registration order (which the
#: runner's import order makes the paper's presentation order).
REGISTRY: dict[str, Experiment] = {}


def register_experiment(name: str, description: str, *,
                        expectation: str = "") -> Callable:
    """Decorator factory: register the decorated ``run`` as ``name``."""

    def decorate(fn: Callable) -> Callable:
        existing = REGISTRY.get(name)
        if (existing is not None
                and fn.__module__ != existing.runner.__module__):
            raise ValueError(f"experiment {name!r} registered twice")
        # The same module re-imported (e.g. importlib.reload) refreshes
        # its entry in place — dict assignment keeps the presentation
        # order.
        REGISTRY[name] = Experiment(
            name=name, description=description, runner=fn,
            expectation=expectation,
        )
        return fn

    return decorate


@register_experiment(
    "params",
    "Section 5.1.1 parameter tables",
    expectation="Reproduced verbatim as defaults.",
)
def _params_experiment(options: Optional[object] = None,
                       processes: Optional[int] = None) -> str:
    """The static parameter tables (no simulation, nothing to fan out)."""
    from .config import DISK_TABLE, NETWORK_TABLE
    from .reporting import format_table

    return (
        format_table(["Network Parameters", "Values"], NETWORK_TABLE,
                     title="Section 5.1.1 network parameters")
        + "\n\n"
        + format_table(["Disk Parameters", "Values"], DISK_TABLE,
                       title="Section 5.1.1 disk parameters")
    )
