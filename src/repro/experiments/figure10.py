"""Figure 10 — DP vs FP on hierarchical configurations.

Paper setup (Section 5.3): 40 plans, redistribution skew 0.6, three
configurations (4x8, 4x12, 4x16 processors).  "We observed, among all
executions, performance gains between 14 and 39%.  This is due to less
utilization of global load balancing for DP as well as better performance
of DP on SM-nodes.  The communication overhead due to global load
balancing is 2 to 4 times smaller for DP.  Also, processor idle time with
DP is almost null whereas it is quite significant with FP."

The relative-performance series here use FP as the reference (FP = 1, DP
below); the result also carries the load-balancing traffic ratio and the
idle-time comparison.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

from ..catalog.skew import SkewSpec
from ..engine import QueryExecutor
from ..sim.machine import MachineConfig
from ..workloads.plans import build_workload
from .config import FIGURE10_CONFIGS, ExperimentOptions, scaled_execution_params
from .methodology import Series, relative_performance
from .registry import register_experiment
from .reporting import format_series_table, format_table

__all__ = ["Figure10Result", "run", "PAPER_EXPECTATION"]

SKEW_FACTOR = 0.6

PAPER_EXPECTATION = (
    "DP outperforms FP on every configuration (paper: gains of 14-39%); "
    "DP's global-load-balancing traffic is 2-4x smaller; DP idle time "
    "near zero while FP's is significant."
)


@dataclass(frozen=True)
class Figure10Result:
    """DP-vs-FP comparison across hierarchical configurations."""

    series: tuple[Series, ...]
    gains: dict[str, float]
    lb_traffic_ratio: dict[str, float]
    idle_dp: dict[str, float]
    idle_fp: dict[str, float]
    options: ExperimentOptions

    def table(self) -> str:
        main = format_series_table(
            self.series, x_label="config index",
            title=f"Figure 10: relative performance, skew {SKEW_FACTOR} "
                  "(reference = FP)",
        )
        rows = [
            (
                label,
                f"{self.gains[label]:.1%}",
                f"{self.lb_traffic_ratio[label]:.1f}x",
                f"{self.idle_dp[label]:.1%}",
                f"{self.idle_fp[label]:.1%}",
            )
            for label in self.gains
        ]
        side = format_table(
            ["config", "DP gain", "FP/DP LB traffic", "DP idle", "FP idle"],
            rows, title="Section 5.3 observables",
        )
        return main + "\n\n" + side


@register_experiment("fig10", "Figure 10: DP vs FP, hierarchical",
                     expectation=PAPER_EXPECTATION)
def run(options: Optional[ExperimentOptions] = None,
        configs: tuple[tuple[int, int], ...] = FIGURE10_CONFIGS,
        skew_factor: float = SKEW_FACTOR) -> Figure10Result:
    """Measure DP vs FP on the hierarchical configurations."""
    options = options or ExperimentOptions()
    params = scaled_execution_params(
        scale=options.scale,
        skew=SkewSpec.uniform_redistribution(skew_factor),
    )
    dp_points, fp_points = [], []
    gains: dict[str, float] = {}
    traffic: dict[str, float] = {}
    idle_dp: dict[str, float] = {}
    idle_fp: dict[str, float] = {}
    for index, (nodes, procs) in enumerate(configs):
        config = MachineConfig(nodes=nodes, processors_per_node=procs)
        label = config.describe()
        workload = build_workload(config, options.workload_config())
        plans = workload.plans[: options.plans]
        dp_results = [
            QueryExecutor(plan, config, strategy="DP", params=params).run()
            for plan in plans
        ]
        fp_results = [
            QueryExecutor(plan, config, strategy="FP", params=params).run()
            for plan in plans
        ]
        dp_times = [r.response_time for r in dp_results]
        fp_times = [r.response_time for r in fp_results]
        dp_points.append((index, relative_performance(dp_times, fp_times)))
        fp_points.append((index, 1.0))
        gains[label] = statistics.mean(
            (fp - dp) / fp for dp, fp in zip(dp_times, fp_times)
        )
        dp_bytes = statistics.mean(
            r.metrics.loadbalance_bytes for r in dp_results
        )
        fp_bytes = statistics.mean(
            r.metrics.loadbalance_bytes for r in fp_results
        )
        traffic[label] = fp_bytes / max(1.0, dp_bytes)
        idle_dp[label] = statistics.mean(
            r.metrics.idle_fraction() for r in dp_results
        )
        idle_fp[label] = statistics.mean(
            r.metrics.idle_fraction() for r in fp_results
        )
    series = (
        Series("DP", tuple(dp_points)),
        Series("FP", tuple(fp_points)),
    )
    return Figure10Result(
        series=series, gains=gains, lb_traffic_ratio=traffic,
        idle_dp=idle_dp, idle_fp=idle_fp, options=options,
    )
