"""Figure 7 — impact of cost-model errors on FP.

Paper setup (Section 5.2.1): distort base/intermediate cardinalities by a
value chosen in [-e, +e]; this propagates into the per-operator cost
estimates that drive FP's static processor allocation.  Error rates 0-30%,
8/16/32/64 processors, SP's response time as the reference, three random
distortions per plan and rate; the paper restricts the number of plans for
this experiment.

Expected shape: degradation grows with the error rate; with few processors
(8) it is small at small rates but passes a threshold around 20% (a few
badly allocated processors is a big fraction of 8); with many processors
the degradation is steadier and proportionally smaller.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..sim.machine import MachineConfig
from .config import ExperimentOptions
from .methodology import (Distortion, FigureResult, measure_points,
                          single_point)
from .registry import register_experiment
from .reporting import pivot_table

__all__ = ["Figure7Result", "run", "points", "PAPER_EXPECTATION"]

#: cost-model error rates on the x-axis (fractions).
ERROR_RATES = (0.0, 0.05, 0.10, 0.20, 0.30)
PROCESSOR_COUNTS = (8, 16, 32, 64)
DISTORTIONS_PER_PLAN = 3

PAPER_EXPECTATION = (
    "FP degradation (reference = SP) grows with the error rate; sharp "
    "threshold near 20% error at 8 processors, flatter and proportionally "
    "smaller degradation at 64."
)


class Figure7Result(FigureResult):
    """Per processor count, the SP reference point and one distorted FP
    point per error rate."""

    def table(self) -> str:
        def relative(point) -> str:
            reference = self.reference(point, strategy="SP", error_rate=0.0)
            return f"{point.relative_to(reference):.3f}"

        return pivot_table(
            self.select(strategy="FP"), "error_rate",
            [("error rate", {}, lambda point: point.error_rate)] + [
                (f"{procs} procs", {"processors": procs}, relative)
                for procs in self.distinct("processors")
            ],
            title="Figure 7: FP degradation vs cost-model error (ref = SP)",
        )


def points(options: ExperimentOptions,
           processor_counts: tuple[int, ...] = PROCESSOR_COUNTS,
           error_rates: tuple[float, ...] = ERROR_RATES,
           distortions_per_plan: int = DISTORTIONS_PER_PLAN) -> tuple:
    """FP under distorted cost estimates, with its SP references."""
    # The paper restricts the plan count here ("given the random nature of
    # the measurements"): cap at 8 unless the caller asks for fewer.
    plans = replace(options.plan_mix(), plan_count=min(options.plans, 8))
    built = []
    for procs in processor_counts:
        machine = MachineConfig(nodes=1, processors_per_node=procs)
        built.append(single_point(options, machine, "SP", plans=plans))
        built.extend(
            single_point(options, machine, "FP", plans=plans,
                         distortion=Distortion(
                             rate=rate,
                             draws=distortions_per_plan if rate > 0 else 1,
                             seed=options.seed, stream=f"fig7:{procs}:{rate}",
                         ))
            for rate in error_rates
        )
    return tuple(built)


@register_experiment("fig7", "Figure 7: FP vs cost-model error",
                     expectation=PAPER_EXPECTATION)
def run(options: Optional[ExperimentOptions] = None,
        processes: Optional[int] = None, **shape) -> Figure7Result:
    """Measure the figure; ``shape`` is :func:`points`'s keywords."""
    options = options or ExperimentOptions()
    return Figure7Result(
        rows=measure_points(points(options, **shape), processes))
