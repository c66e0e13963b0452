"""Figure 6 — relative performance of SP, DP and FP (shared memory).

Paper setup (Section 5.2.1): one shared-memory node, no data skew, 16/32/64
processors (the text also discusses 8); the reference response time is
SP's, "which is always best".  Expected shape: SP = 1 by construction, DP
within a few percent of SP ("very close from 8 and 32 processors and
remain close for higher numbers"), FP always worse, degrading as the
number of processors decreases (discretization errors).
"""

from __future__ import annotations

from typing import Optional

from ..sim.machine import MachineConfig
from .config import ExperimentOptions
from .methodology import FigureResult, measure_points, single_point
from .registry import register_experiment
from .reporting import pivot_table

__all__ = ["Figure6Result", "run", "points", "PAPER_EXPECTATION"]

#: processor counts on the figure's x-axis.
PROCESSOR_COUNTS = (8, 16, 32, 64)
#: SP first: it is the reference.
STRATEGIES = ("SP", "DP", "FP")

PAPER_EXPECTATION = (
    "SP = 1.0 (reference, always best); DP within a few percent of SP at "
    "8-32 processors and close above; FP always worst, worse at fewer "
    "processors (roughly 1.2-1.45 in the paper's plot)."
)


class Figure6Result(FigureResult):
    """One point per (processors, strategy)."""

    def table(self) -> str:
        def relative(point) -> str:
            reference = self.reference(point, strategy="SP")
            return f"{point.relative_to(reference):.3f}"

        return pivot_table(
            self.rows, "processors",
            [("processors", {}, lambda point: point.processors)] + [
                (strategy, {"strategy": strategy}, relative)
                for strategy in self.distinct("strategy")
            ],
            title="Figure 6: relative performance (reference = SP)",
        )


def points(options: ExperimentOptions,
           processor_counts: tuple[int, ...] = PROCESSOR_COUNTS) -> tuple:
    """SP/DP/FP on one SM-node across processor counts."""
    return tuple(
        single_point(options,
                     MachineConfig(nodes=1, processors_per_node=procs),
                     strategy)
        for procs in processor_counts
        for strategy in STRATEGIES
    )


@register_experiment("fig6", "Figure 6: SP/DP/FP relative performance",
                     expectation=PAPER_EXPECTATION)
def run(options: Optional[ExperimentOptions] = None,
        processes: Optional[int] = None, **shape) -> Figure6Result:
    """Measure the figure; ``shape`` is :func:`points`'s keywords."""
    options = options or ExperimentOptions()
    return Figure6Result(
        rows=measure_points(points(options, **shape), processes))
