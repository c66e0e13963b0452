"""Section 5.3 — load-balancing transfer volume on one pipeline chain.

Paper setup: "a simple execution plan, i.e., a pipeline chain of 5
operators, each having a redistribution skew factor of 0.8.  The
hierarchical system is configured as 4 SM-nodes, each having 8 processors.
We measured the amount of data exchanged between nodes with FP and DP.
For this experiment, FP requires 9 Megabytes data to be transferred versus
only 2.5 Megabytes for DP."

The paper's explanation, reproduced by the engine: under FP processors
become idle independently, so several starving situations arise on one
node and mutual stealing between nodes occurs; under DP a processor is
idle only when its whole node starves, so load sharing happens at node
granularity.

Absolute megabytes depend on the workload scale; the *ratio* (FP/DP
between roughly 2x and 4x) is the reproducible observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..catalog.skew import SkewSpec
from ..engine import QueryExecutor
from ..workloads.scenarios import pipeline_chain_scenario
from .config import ExperimentOptions, scaled_execution_params
from .registry import register_experiment
from .reporting import format_table

__all__ = ["Section53Result", "run", "PAPER_EXPECTATION"]

SKEW_FACTOR = 0.8
NODES = 4
PROCESSORS_PER_NODE = 8

PAPER_EXPECTATION = (
    "FP ships several times more load-balancing data than DP on the "
    "5-operator chain (paper: 9 MB vs 2.5 MB, i.e. 3.6x)."
)


@dataclass(frozen=True)
class Section53Result:
    """Transfer volumes and steal behaviour for DP and FP."""

    dp_bytes: int
    fp_bytes: int
    dp_steals: int
    fp_steals: int
    dp_response: float
    fp_response: float

    @property
    def traffic_ratio(self) -> float:
        """FP bytes over DP bytes (the paper's 9/2.5 = 3.6)."""
        return self.fp_bytes / max(1, self.dp_bytes)

    def table(self) -> str:
        rows = [
            ("DP", f"{self.dp_bytes / 1e6:.2f} MB", self.dp_steals,
             f"{self.dp_response:.3f} s"),
            ("FP", f"{self.fp_bytes / 1e6:.2f} MB", self.fp_steals,
             f"{self.fp_response:.3f} s"),
            ("FP/DP", f"{self.traffic_ratio:.1f}x", "-", "-"),
        ]
        return format_table(
            ["strategy", "LB data transferred", "steals", "response"],
            rows,
            title=f"Section 5.3: 5-operator chain, skew {SKEW_FACTOR}, "
                  f"{NODES}x{PROCESSORS_PER_NODE}",
        )


@register_experiment("sec53", "Section 5.3: LB transfer volume",
                     expectation=PAPER_EXPECTATION)
def run(options: Optional[ExperimentOptions] = None,
        base_tuples: Optional[int] = None) -> Section53Result:
    """Measure the LB transfer volume on the paper's chain scenario."""
    options = options or ExperimentOptions()
    if base_tuples is None:
        # 1M-tuple driving relation at scale 1.0 (a "large" relation).
        base_tuples = max(500, int(1_000_000 * options.scale))
    plan, config = pipeline_chain_scenario(
        nodes=NODES, processors_per_node=PROCESSORS_PER_NODE,
        base_tuples=base_tuples,
    )
    params = scaled_execution_params(
        scale=options.scale,
        skew=SkewSpec.uniform_redistribution(SKEW_FACTOR),
    )
    dp = QueryExecutor(plan, config, strategy="DP", params=params).run()
    fp = QueryExecutor(plan, config, strategy="FP", params=params).run()
    return Section53Result(
        dp_bytes=dp.metrics.loadbalance_bytes,
        fp_bytes=fp.metrics.loadbalance_bytes,
        dp_steals=dp.metrics.steals_succeeded,
        fp_steals=fp.metrics.steals_succeeded,
        dp_response=dp.response_time,
        fp_response=fp.response_time,
    )
