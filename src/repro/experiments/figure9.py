"""Figure 9 — impact of redistribution skew on DP.

Paper setup (Section 5.2.2): 64 processors on one SM-node; redistribution
skew injected in the production of trigger activations and in every
pipelined producer, all operators sharing the same Zipf factor; the
reference response time is the same plan with no skew.

Expected shape: "the impact of skew on our model is insignificant" — the
curve stays within a few percent of 1.0 across the whole 0..1 range,
thanks to high fragmentation, primary-queue priority and activation
buffering.
"""

from __future__ import annotations

from ..sim.machine import MachineConfig
from .config import ExperimentOptions
from .methodology import FigureResult, measure, single_point
from .registry import register_experiment
from .reporting import pivot_table

__all__ = ["Figure9Result", "points", "PAPER_EXPECTATION"]

#: Zipf skew factors on the x-axis (the first is the reference).
SKEW_FACTORS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
PROCESSORS = 64

PAPER_EXPECTATION = (
    "DP degradation vs no-skew reference stays insignificant (well under "
    "~1.1 even at Zipf factor 1.0)."
)


class Figure9Result(FigureResult):
    """One DP point per skew factor; the first is the reference."""

    def table(self) -> str:
        reference = self.rows[0]
        return pivot_table(
            self.rows, "skew",
            (("Zipf factor", {}, lambda point: point.skew),
             ("DP", {},
              lambda point: f"{point.relative_to(reference):.3f}")),
            title=f"Figure 9: DP degradation vs skew ({reference.processors} "
                  "processors, ref = no skew)",
        )


def points(options: ExperimentOptions,
           skew_factors: tuple[float, ...] = SKEW_FACTORS,
           processors: int = PROCESSORS) -> tuple:
    """DP on one SM-node across redistribution skew factors."""
    machine = MachineConfig(nodes=1, processors_per_node=processors)
    return tuple(single_point(options, machine, "DP", skew=theta)
                 for theta in skew_factors)


register_experiment("fig9", "Figure 9: DP vs redistribution skew",
                    cells=points, measure=measure,
                    assemble=Figure9Result.assemble,
                    expectation=PAPER_EXPECTATION)
