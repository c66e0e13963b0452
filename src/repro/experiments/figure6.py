"""Figure 6 — relative performance of SP, DP and FP (shared memory).

Paper setup (Section 5.2.1): one shared-memory node, no data skew, 16/32/64
processors (the text also discusses 8); the reference response time is
SP's, "which is always best".  Expected shape: SP = 1 by construction, DP
within a few percent of SP ("very close from 8 and 32 processors and
remain close for higher numbers"), FP always worse, degrading as the
number of processors decreases (discretization errors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine import QueryExecutor
from ..sim.machine import MachineConfig
from ..workloads.plans import build_workload
from .config import ExperimentOptions, scaled_execution_params
from .methodology import Series, relative_performance
from .registry import register_experiment
from .reporting import format_series_table

__all__ = ["Figure6Result", "run", "PAPER_EXPECTATION"]

#: processor counts on the figure's x-axis.
PROCESSOR_COUNTS = (8, 16, 32, 64)

PAPER_EXPECTATION = (
    "SP = 1.0 (reference, always best); DP within a few percent of SP at "
    "8-32 processors and close above; FP always worst, worse at fewer "
    "processors (roughly 1.2-1.45 in the paper's plot)."
)


@dataclass(frozen=True)
class Figure6Result:
    """Relative-performance series for SP, DP, FP vs processor count."""

    series: tuple[Series, ...]
    options: ExperimentOptions

    def table(self) -> str:
        return format_series_table(
            self.series, x_label="processors",
            title="Figure 6: relative performance (reference = SP)",
        )


@register_experiment("fig6", "Figure 6: SP/DP/FP relative performance",
                     expectation=PAPER_EXPECTATION)
def run(options: Optional[ExperimentOptions] = None,
        processor_counts: tuple[int, ...] = PROCESSOR_COUNTS) -> Figure6Result:
    """Measure SP/DP/FP on one SM-node across processor counts."""
    options = options or ExperimentOptions()
    params = scaled_execution_params(scale=options.scale)
    points: dict[str, list[tuple[float, float]]] = {"SP": [], "DP": [], "FP": []}
    for procs in processor_counts:
        config = MachineConfig(nodes=1, processors_per_node=procs)
        workload = build_workload(config, options.workload_config())
        plans = workload.plans[: options.plans]
        sp_times = [
            QueryExecutor(plan, config, strategy="SP", params=params)
            .run().response_time
            for plan in plans
        ]
        points["SP"].append((procs, 1.0))
        for strategy in ("DP", "FP"):
            times = [
                QueryExecutor(plan, config, strategy=strategy, params=params)
                .run().response_time
                for plan in plans
            ]
            points[strategy].append(
                (procs, relative_performance(times, sp_times))
            )
    series = tuple(Series(name, tuple(pts)) for name, pts in points.items())
    return Figure6Result(series=series, options=options)
