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

import random
from dataclasses import dataclass
from typing import Optional

from ..engine import QueryExecutor
from ..sim.machine import MachineConfig
from ..sim.rng import derive_seed
from ..workloads.plans import build_workload
from .config import ExperimentOptions, scaled_execution_params
from .methodology import Series, relative_performance
from .registry import register_experiment
from .reporting import format_series_table

__all__ = ["Figure7Result", "run", "PAPER_EXPECTATION"]

#: cost-model error rates on the x-axis (fractions).
ERROR_RATES = (0.0, 0.05, 0.10, 0.20, 0.30)
PROCESSOR_COUNTS = (8, 16, 32, 64)
DISTORTIONS_PER_PLAN = 3

PAPER_EXPECTATION = (
    "FP degradation (reference = SP) grows with the error rate; sharp "
    "threshold near 20% error at 8 processors, flatter and proportionally "
    "smaller degradation at 64."
)


@dataclass(frozen=True)
class Figure7Result:
    """FP relative performance vs error rate, one series per #processors."""

    series: tuple[Series, ...]
    options: ExperimentOptions

    def table(self) -> str:
        return format_series_table(
            self.series, x_label="error rate",
            title="Figure 7: FP degradation vs cost-model error (ref = SP)",
        )

    def degradation(self, procs: int) -> float:
        """Ratio of the worst point to the zero-error point for ``procs``."""
        series = next(s for s in self.series if s.name == f"{procs} procs")
        return max(series.ys()) / series.y_at(0.0)


@register_experiment("fig7", "Figure 7: FP vs cost-model error",
                     expectation=PAPER_EXPECTATION)
def run(options: Optional[ExperimentOptions] = None,
        processor_counts: tuple[int, ...] = PROCESSOR_COUNTS,
        error_rates: tuple[float, ...] = ERROR_RATES,
        distortions_per_plan: int = DISTORTIONS_PER_PLAN) -> Figure7Result:
    """Measure FP under distorted cost estimates."""
    options = options or ExperimentOptions()
    params = scaled_execution_params(scale=options.scale)
    # The paper restricts the plan count here ("given the random nature of
    # the measurements"): cap at 8 unless the caller asks for fewer.
    plan_cap = min(options.plans, 8)
    all_series = []
    for procs in processor_counts:
        config = MachineConfig(nodes=1, processors_per_node=procs)
        workload = build_workload(config, options.workload_config())
        plans = workload.plans[:plan_cap]
        sp_times = [
            QueryExecutor(plan, config, strategy="SP", params=params)
            .run().response_time
            for plan in plans
        ]
        points = []
        for rate in error_rates:
            measured = []
            references = []
            for plan_index, plan in enumerate(plans):
                for distortion in range(distortions_per_plan if rate > 0 else 1):
                    rng = random.Random(derive_seed(
                        options.seed, f"fig7:{procs}:{rate}:{plan_index}:{distortion}"
                    ))
                    distorted = plan.distorted(rate, rng)
                    result = QueryExecutor(
                        distorted, config, strategy="FP", params=params
                    ).run()
                    measured.append(result.response_time)
                    references.append(sp_times[plan_index])
            points.append((rate, relative_performance(measured, references)))
        all_series.append(Series(f"{procs} procs", tuple(points)))
    return Figure7Result(series=tuple(all_series), options=options)
