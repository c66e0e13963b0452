"""The paper's measurement methodology (Section 5.1.3).

"Since the different parallel execution plans correspond to 20 different
queries, computing the average response time does not make sense.
Therefore, the results will always be in terms of comparable execution
times. ... each point of a graph is obtained with n measurements, each on
a different plan, using the following formula:

    (1/n) * sum_i  rt_strategy(plan_i) / rt_reference(plan_i)

where the reference response time will be indicated for each experiment."

A graph point is data: :func:`single_point` builds it as a
``mode="single"`` :class:`~repro.api.spec.ScenarioSpec` (machine, scaled
engine parameters, strategy, plan population).  :func:`measure` is the
one place a point is measured — every plan of the population runs alone
and is reduced to a :class:`PlanRun` inside the worker (every figure
registers it as its ``measure``),
:meth:`FigureResult.reference` finds the point an experiment names as
its reference and :meth:`Point.relative_to` applies the formula
(:func:`relative_performance`) between the two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from ..api.facade import build_plans, run_query
from ..api.spec import PlanSpec, ScenarioSpec
from ..catalog.skew import SkewSpec
from ..serving.spec import WorkloadSpec
from ..sim.machine import MachineConfig
from ..sim.rng import derive_seed
from .config import ExperimentOptions, scaled_execution_params
from .reporting import SweepResult

__all__ = ["Distortion", "FigureResult", "PlanRun", "Point", "measure",
           "relative_performance", "single_point"]


def relative_performance(measured: Sequence[float],
                         reference: Sequence[float]) -> float:
    """Mean of per-plan response-time ratios (the Section 5.1.3 formula)."""
    if len(measured) != len(reference):
        raise ValueError(
            f"measured ({len(measured)}) and reference ({len(reference)}) "
            f"must pair up plan by plan"
        )
    if not measured:
        raise ValueError("need at least one measurement")
    for i, (m, r) in enumerate(zip(measured, reference)):
        if m <= 0 or r <= 0:
            raise ValueError(f"non-positive response time at plan {i}: {m}, {r}")
    # A left fold (float ``sum()`` rounds differently from 3.12 on).
    total = 0.0
    for m, r in zip(measured, reference):
        total += m / r
    return total / len(measured)


@dataclass(frozen=True)
class Distortion:
    """Figure 7's cost-model error, carried beside a point's cell (a
    distorted plan is not spec data).

    Every plan of the point runs ``draws`` times, draw ``d`` of plan
    ``i`` distorted at ``rate`` by the stream
    ``derive_seed(seed, f"{stream}:{i}:{d}")``.
    """

    rate: float
    draws: int
    seed: int
    stream: str


@dataclass(frozen=True)
class PlanRun:
    """One plan executed alone: what crosses the process boundary."""

    #: index of the plan in the point's population.
    plan: int
    response_time: float
    loadbalance_bytes: int
    steals: int
    idle_fraction: float


@dataclass(frozen=True)
class Point:
    """One measured graph point: its keys, read back off the cell, and
    one :class:`PlanRun` per execution, in execution order."""

    nodes: int
    #: processors per node.
    processors: int
    strategy: str
    skew: float
    error_rate: float
    runs: tuple[PlanRun, ...]

    def relative_to(self, reference: "Point") -> float:
        """The Section 5.1.3 ratio of this point to ``reference`` (an
        undistorted point over the same population), plan by plan."""
        return relative_performance(
            [run.response_time for run in self.runs],
            [reference.runs[run.plan].response_time for run in self.runs],
        )


class FigureResult(SweepResult):
    """What a paper figure returns: one :class:`Point` per row."""

    def reference(self, point: Point, **differing) -> Point:
        """The point whose keys differ from ``point``'s in ``differing``
        only (``strategy="SP"``: the same machine and skew under SP)."""
        keys = {field.name: getattr(point, field.name)
                for field in fields(point) if field.name != "runs"}
        return self.cell(**{**keys, **differing})


def single_point(options: ExperimentOptions, machine: MachineConfig,
                 strategy: str, skew: float = 0.0,
                 plans: Optional[PlanSpec] = None,
                 distortion: Optional[Distortion] = None) -> tuple:
    """A graph point as data: ``(cell, distortion)``.

    The cell runs ``strategy`` on ``machine`` at the experiment's scale
    under redistribution skew ``skew``; ``plans`` defaults to the
    Section 5.1.2 population.
    """
    cell = ScenarioSpec(
        mode="single", cluster=machine,
        params=scaled_execution_params(
            scale=options.scale,
            skew=SkewSpec(redistribution=skew),
        ),
        workload=WorkloadSpec(strategy=strategy),
        plans=plans or options.plan_mix(),
    )
    return cell, distortion


def measure(point: tuple) -> Point:
    """Measure one graph point (runs in the worker)."""
    cell, distortion = point
    runs = []
    for index, plan in enumerate(build_plans(cell)):
        variants = [plan] if distortion is None else [
            plan.distorted(distortion.rate, random.Random(derive_seed(
                distortion.seed, f"{distortion.stream}:{index}:{draw}"
            )))
            for draw in range(distortion.draws)
        ]
        for variant in variants:
            result = run_query(cell, plans=(variant,))
            metrics = result.metrics
            runs.append(PlanRun(
                plan=index,
                response_time=result.response_time,
                loadbalance_bytes=metrics.loadbalance_bytes,
                steals=metrics.steals_succeeded,
                idle_fraction=metrics.idle_fraction(),
            ))
    machines = cell.cluster.machines
    return Point(
        nodes=machines.nodes, processors=machines.processors_per_node,
        strategy=cell.workload.strategy,
        skew=cell.params.skew.redistribution,
        error_rate=distortion.rate if distortion is not None else 0.0,
        runs=tuple(runs),
    )
