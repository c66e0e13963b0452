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

from dataclasses import replace
from typing import Optional

from ..api.spec import PlanSpec
from ..sim.machine import MachineConfig
from .config import ExperimentOptions
from .methodology import FigureResult, measure, single_point
from .registry import register_experiment
from .reporting import pivot_table

__all__ = ["Section53Result", "points", "PAPER_EXPECTATION"]

SKEW_FACTOR = 0.8
NODES = 4
PROCESSORS_PER_NODE = 8

PAPER_EXPECTATION = (
    "FP ships several times more load-balancing data than DP on the "
    "5-operator chain (paper: 9 MB vs 2.5 MB, i.e. 3.6x)."
)


class Section53Result(FigureResult):
    """The DP and the FP point, one run each."""

    def table(self) -> str:
        dp, fp = (self.cell(strategy=strategy).runs[0]
                  for strategy in ("DP", "FP"))
        # The paper's 9/2.5 = 3.6: a third line with no run of its own.
        ratio = fp.loadbalance_bytes / max(1, dp.loadbalance_bytes)
        derived = replace(self.rows[0], strategy="FP/DP", runs=())

        def of_run(render, otherwise="-"):
            return lambda point: (render(point.runs[0]) if point.runs
                                  else otherwise)

        return pivot_table(
            (*self.rows, derived), "strategy",
            (("strategy", {}, lambda point: point.strategy),
             ("LB data transferred", {}, of_run(
                 lambda run: f"{run.loadbalance_bytes / 1e6:.2f} MB",
                 otherwise=f"{ratio:.1f}x")),
             ("steals", {}, of_run(lambda run: run.steals)),
             ("response", {},
              of_run(lambda run: f"{run.response_time:.3f} s"))),
            title=f"Section 5.3: 5-operator chain, skew {SKEW_FACTOR}, "
                  f"{NODES}x{PROCESSORS_PER_NODE}",
        )


def points(options: ExperimentOptions,
           base_tuples: Optional[int] = None) -> tuple:
    """DP and FP on the paper's chain scenario."""
    if base_tuples is None:
        # 1M-tuple driving relation at scale 1.0 (a "large" relation).
        base_tuples = max(500, int(1_000_000 * options.scale))
    machine = MachineConfig(nodes=NODES,
                            processors_per_node=PROCESSORS_PER_NODE)
    chain = PlanSpec(kind="pipeline_chain", base_tuples=base_tuples)
    return tuple(
        single_point(options, machine, strategy, skew=SKEW_FACTOR,
                     plans=chain)
        for strategy in ("DP", "FP")
    )


register_experiment("sec53", "Section 5.3: LB transfer volume",
                    cells=points, measure=measure,
                    assemble=Section53Result.assemble,
                    expectation=PAPER_EXPECTATION)
