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

from dataclasses import dataclass
from typing import Optional

from ..catalog.skew import SkewSpec
from ..engine import QueryExecutor
from ..sim.machine import MachineConfig
from ..workloads.plans import build_workload
from .config import ExperimentOptions, scaled_execution_params
from .methodology import Series, relative_performance
from .registry import register_experiment
from .reporting import format_series_table

__all__ = ["Figure9Result", "run", "PAPER_EXPECTATION"]

#: Zipf skew factors on the x-axis.
SKEW_FACTORS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
PROCESSORS = 64

PAPER_EXPECTATION = (
    "DP degradation vs no-skew reference stays insignificant (well under "
    "~1.1 even at Zipf factor 1.0)."
)


@dataclass(frozen=True)
class Figure9Result:
    """DP relative performance vs redistribution skew factor."""

    series: tuple[Series, ...]
    options: ExperimentOptions

    def table(self) -> str:
        return format_series_table(
            self.series, x_label="Zipf factor",
            title=f"Figure 9: DP degradation vs skew ({PROCESSORS} processors, "
                  "ref = no skew)",
        )

    def max_degradation(self) -> float:
        return max(self.series[0].ys())


@register_experiment("fig9", "Figure 9: DP vs redistribution skew",
                     expectation=PAPER_EXPECTATION)
def run(options: Optional[ExperimentOptions] = None,
        skew_factors: tuple[float, ...] = SKEW_FACTORS,
        processors: int = PROCESSORS) -> Figure9Result:
    """Measure DP's skew resilience."""
    options = options or ExperimentOptions()
    config = MachineConfig(nodes=1, processors_per_node=processors)
    workload = build_workload(config, options.workload_config())
    plans = workload.plans[: options.plans]
    reference: Optional[list[float]] = None
    points = []
    for theta in skew_factors:
        params = scaled_execution_params(
            scale=options.scale,
            skew=SkewSpec.uniform_redistribution(theta),
        )
        times = [
            QueryExecutor(plan, config, strategy="DP", params=params)
            .run().response_time
            for plan in plans
        ]
        if reference is None:
            reference = times
        points.append((theta, relative_performance(times, reference)))
    series = (Series("DP", tuple(points)),)
    return Figure9Result(series=series, options=options)
