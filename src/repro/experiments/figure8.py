"""Figure 8 — speedup of SP, DP and FP on one shared-memory node.

Paper setup (Section 5.2.1): average per-plan speedup (response time on one
processor over response time on p processors), p up to 64, no skew, FP with
zero cost-model error.

Expected shape: SP and DP near-linear and nearly identical up to 32
processors, tapering beyond (the paper attributes the taper to the KSR1
memory hierarchy; in this reproduction the taper comes from fixed
per-chain costs and granularity limits); FP always below.
"""

from __future__ import annotations

from . import figure6
from .config import ExperimentOptions
from .methodology import FigureResult, measure
from .registry import register_experiment
from .reporting import pivot_table

__all__ = ["Figure8Result", "points", "PAPER_EXPECTATION"]

#: processor counts of the speedup curve (the first is the reference).
PROCESSOR_COUNTS = (1, 8, 16, 32, 48, 64)

PAPER_EXPECTATION = (
    "SP slightly above DP throughout; both near-linear up to 32 "
    "processors, flattening after; FP clearly below both."
)


class Figure8Result(FigureResult):
    """One point per (processors, strategy)."""

    def table(self) -> str:
        base = self.distinct("processors")[0]

        def speedup(point) -> str:
            # Mean of rt(base procs) / rt(p procs): the formula with the
            # roles swapped.
            reference = self.reference(point, processors=base)
            return f"{reference.relative_to(point):.1f}"

        return pivot_table(
            self.rows, "processors",
            [("processors", {}, lambda point: point.processors)] + [
                (strategy, {"strategy": strategy}, speedup)
                for strategy in self.distinct("strategy")
            ],
            title="Figure 8: average speedup",
        )


def points(options: ExperimentOptions,
           processor_counts: tuple[int, ...] = PROCESSOR_COUNTS) -> tuple:
    """Figure 6's points over the speedup curve's processor counts."""
    return figure6.points(options, processor_counts)


register_experiment("fig8", "Figure 8: speedup",
                    cells=points, measure=measure,
                    assemble=Figure8Result.assemble,
                    expectation=PAPER_EXPECTATION)
