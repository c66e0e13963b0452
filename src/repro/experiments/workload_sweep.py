"""Workload sweep — multiprogramming level × skew × strategy.

The paper evaluates strategies one query at a time; this experiment is
the serving-layer extension the ROADMAP asks for: sustained closed-loop
query streams against one hierarchical machine, sweeping the
multiprogramming level (MPL), the redistribution skew and the execution
strategy, and reading back workload-level observables — throughput, p95
latency, mean queueing delay, CPU contention and per-query steal traffic.

The grid is data, not code: one base
:class:`~repro.api.spec.ScenarioSpec` (cluster, engine params, workload,
plan population) plus a :class:`~repro.api.sweep.SweepSpec` with
``skew`` / ``strategy`` / ``mpl`` axes; the registered ``cells``
materializes it.  Queries come from the
paper's own mixed plan population (``PlanSpec(kind="workload_mix")``,
the Section 5.1.2 construction: 30–60-minute-band bushy plans, limited
to ``options.plans`` entries), so concurrent queries have genuinely
different shapes and sizes.

Expected shape: the paper's Section 5.3 single-query ordering (DP over FP
under skew) survives multiprogramming.  DP's throughput meets or beats
FP's at every MPL under skew, because FP's static misallocation wastes
processor share that concurrent DP queries would soak up; p95 latency
grows with MPL for both (the machine saturates), but from a lower base
for DP.  In the pure closed loop the admission cap equals the client
population, so queueing delay stays zero — open-loop (Poisson/bursty)
drivers are where admission queueing appears (see the serving tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..api.facade import run as run_scenario
from ..api.spec import ScenarioSpec
from ..api.sweep import SweepSpec
from ..serving import AdmissionPolicy, ArrivalSpec, WorkloadSpec
from ..sim.machine import MachineConfig
from .config import ExperimentOptions, scaled_execution_params
from .registry import register_experiment, sweep_cells
from .reporting import SweepResult, pivot_table

__all__ = ["WorkloadSweepResult", "sweep_spec", "measure",
           "PAPER_EXPECTATION", "MPL_LEVELS", "SKEW_LEVELS", "STRATEGIES"]

#: multiprogramming levels on the sweep's x-axis.
MPL_LEVELS = (1, 2, 4, 8)
#: redistribution skew (Zipf theta) levels.
SKEW_LEVELS = (0.0, 0.8)
#: strategies under comparison (SP is shared-memory-only; the serving
#: determinism tests cover it separately on one node).
STRATEGIES = ("DP", "FP")

PAPER_EXPECTATION = (
    "Consistent with the paper's single-query Section 5.3 ordering: under "
    "skew (theta = 0.8) DP throughput >= FP throughput at every "
    "multiprogramming level, DP ships less load-balancing data per query, "
    "and p95 latency rises with MPL for both strategies (saturation)."
)


@dataclass(frozen=True)
class SweepCell:
    """One (strategy, skew, MPL) measurement."""

    strategy: str
    skew: float
    mpl: int
    throughput: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    mean_queueing_delay: float
    cpu_contention: float
    steal_bytes: int


class WorkloadSweepResult(SweepResult):
    """The full sweep grid, one :class:`SweepCell` per row."""

    def table(self) -> str:
        measures = (
            ("q/s", lambda c: f"{c.throughput:.2f}"),
            ("p95", lambda c: f"{c.p95_latency:.3f}"),
            ("queue", lambda c: f"{c.mean_queueing_delay:.3f}"),
            ("steal KB", lambda c: f"{c.steal_bytes / 1024:.1f}"),
        )
        columns = [("MPL", {}, lambda c: c.mpl)] + [
            (f"{strategy} {name}", {"strategy": strategy}, render)
            for strategy in self.distinct("strategy")
            for name, render in measures
        ]
        return "\n\n".join(
            pivot_table(
                self.select(skew=skew), "mpl", columns,
                title=f"Workload sweep, redistribution skew {skew:.1f} "
                      f"(closed loop, throughput in queries/s)",
            )
            for skew in self.distinct("skew")
        )


def sweep_spec(options: ExperimentOptions,
               mpl_levels: Sequence[int] = MPL_LEVELS,
               skew_levels: Sequence[float] = SKEW_LEVELS,
               strategies: Sequence[str] = STRATEGIES,
               nodes: int = 4, processors_per_node: int = 8,
               queries_per_cell: int = 16) -> SweepSpec:
    """The whole grid as data: a base cell (MPL 1, no skew, DP, the
    5.1.2 plan mix) × (skew, strategy, mpl) axes."""
    base = ScenarioSpec(
        cluster=MachineConfig(nodes=nodes,
                              processors_per_node=processors_per_node),
        params=scaled_execution_params(
            scale=options.scale, seed=options.seed,
        ),
        workload=WorkloadSpec(
            queries=queries_per_cell,
            arrival=ArrivalSpec(kind="closed", population=1),
            strategy="DP",
            policy=AdmissionPolicy(max_multiprogramming=1),
            seed=options.seed,
        ),
        plans=options.plan_mix(),
        label="workload-sweep",
    )
    return SweepSpec(
        base=base,
        axes=(("skew", tuple(skew_levels)),
              ("strategy", tuple(strategies)),
              ("mpl", tuple(mpl_levels))),
        label="workload-sweep",
    )


def measure(cell: ScenarioSpec) -> SweepCell:
    """Run one cell and reduce it to its observables (runs in the
    worker)."""
    result = run_scenario(cell)
    scenario = result.scenario
    metrics = result.metrics
    return SweepCell(
        strategy=scenario.workload.strategy,
        skew=scenario.params.skew.redistribution,
        mpl=scenario.workload.policy.max_multiprogramming,
        throughput=metrics.throughput(),
        p50_latency=metrics.p50_latency,
        p95_latency=metrics.p95_latency,
        p99_latency=metrics.p99_latency,
        mean_queueing_delay=metrics.mean_queueing_delay(),
        cpu_contention=metrics.total_cpu_contention(),
        steal_bytes=metrics.total_steal_bytes(),
    )


register_experiment(
    "workload",
    "Workload sweep: MPL x skew x strategy (serving layer)",
    cells=sweep_cells(sweep_spec),
    measure=measure, assemble=WorkloadSweepResult.assemble,
    expectation=PAPER_EXPECTATION,
)
