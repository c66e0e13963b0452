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

from dataclasses import dataclass
from typing import Optional

from ..engine import QueryExecutor
from ..sim.machine import MachineConfig
from ..workloads.plans import build_workload
from .config import ExperimentOptions, scaled_execution_params
from .methodology import Series, average_speedup
from .registry import register_experiment
from .reporting import format_series_table

__all__ = ["Figure8Result", "run", "PAPER_EXPECTATION"]

#: processor counts of the speedup curve (1 is the reference).
PROCESSOR_COUNTS = (1, 8, 16, 32, 48, 64)

PAPER_EXPECTATION = (
    "SP slightly above DP throughout; both near-linear up to 32 "
    "processors, flattening after; FP clearly below both."
)


@dataclass(frozen=True)
class Figure8Result:
    """Average speedup series per strategy."""

    series: tuple[Series, ...]
    options: ExperimentOptions

    def table(self) -> str:
        return format_series_table(
            self.series, x_label="processors",
            title="Figure 8: average speedup", fmt="{:.1f}",
        )

    def speedup(self, strategy: str, procs: int) -> float:
        return next(s for s in self.series if s.name == strategy).y_at(procs)


@register_experiment("fig8", "Figure 8: speedup",
                     expectation=PAPER_EXPECTATION)
def run(options: Optional[ExperimentOptions] = None,
        processor_counts: tuple[int, ...] = PROCESSOR_COUNTS) -> Figure8Result:
    """Measure the speedup curves."""
    options = options or ExperimentOptions()
    params = scaled_execution_params(scale=options.scale)
    strategies = ("SP", "DP", "FP")
    times: dict[tuple[str, int], list[float]] = {}
    for procs in processor_counts:
        config = MachineConfig(nodes=1, processors_per_node=procs)
        workload = build_workload(config, options.workload_config())
        plans = workload.plans[: options.plans]
        for strategy in strategies:
            times[(strategy, procs)] = [
                QueryExecutor(plan, config, strategy=strategy, params=params)
                .run().response_time
                for plan in plans
            ]
    series = []
    for strategy in strategies:
        base = times[(strategy, processor_counts[0])]
        points = []
        for procs in processor_counts:
            points.append(
                (procs, average_speedup(base, times[(strategy, procs)]))
            )
        series.append(Series(strategy, tuple(points)))
    return Figure8Result(series=tuple(series), options=options)
