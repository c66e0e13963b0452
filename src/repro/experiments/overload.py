"""Goodput under deep overload: shedding vs. retry storms.

Not a paper figure — the ROADMAP's production-overload arc.  The paper
measures one query at a time on an idle machine; a serving deployment of
the same engine dies a different death: offered load exceeds capacity,
queries shed on queue timeouts, *clients retry*, and the retry traffic
re-offers the overload back to the machine.  This experiment sweeps
offered load from half capacity into deep overload (>= 2x) under two
client regimes built from the same plans, machine, serving policy and
arrival schedule, which differ in the client retry policy alone:

* ``naive`` — clients retry shed queries forever on a short, barely
  jittered backoff (the default behaviour of most application retry
  loops).  Past saturation the retry storm keeps re-offering the excess
  load, so the queue never drains, client-perceived latencies grow
  without bound, and *goodput* — completions within the SLO per second
  of run — collapses even though raw throughput stays near capacity
  (the metastable-failure signature).
* ``graceful`` — a query shed on its queue timeout is dropped, not
  resubmitted, so the excess load leaves the machine and goodput
  flattens near capacity instead of collapsing: the acceptance gate
  asserts the 2x point holds >= 80% of the regime's peak.

The graceful client does not retry because at this SLO a retry is load
that cannot count: its latency runs from the original arrival, and a
query shed after its queue timeout that backs off and queues again
almost never completes inside the SLO.  Bounded retry with jittered
exponential backoff (2 or 3 attempts) held the gate at fewer seeds,
and memory preemption lost goodput or completions at every seed where
it acted, so neither regime carries it.  Both run the broker's
targeted ``"best"`` policy, which won the one sweep cell where the
broker mattered and lost none; README's overload section has the seed
distribution.

Goodput is measured against the *logical* query: a retried query's
latency runs from its original arrival (recomputed from the seeded
schedule — the retry stream is pure in ``(seed, index, attempt)``), so
retries cannot launder queueing time into fresh arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..api.facade import run as run_scenario
from ..api.spec import ScenarioSpec
from ..serving.arrivals import sample_arrival_times
from ..serving.spec import (AdmissionPolicy, ArrivalSpec, RetryPolicySpec,
                            ServiceClass, WorkloadSpec)
from ..sim.machine import MachineConfig
from ..sim.rng import RandomStreams, derive_seed
from .config import ExperimentOptions, scaled_execution_params
from .registry import register_experiment
from .reporting import SweepResult, pivot_table

__all__ = ["OverloadResult", "OverloadRow", "overload_scenarios", "measure",
           "LOAD_MULTIPLIERS"]

PAPER_EXPECTATION = (
    "Shedding on a queue timeout and dropping the shed query holds goodput "
    "near capacity into deep overload (the 2x point stays >= 80% of the "
    "regime's peak), while naive infinite retries recycle the excess load "
    "into a metastable retry storm whose goodput collapses well below that "
    "bar."
)

#: offered load as multiples of the calibrated base rate.
LOAD_MULTIPLIERS = (0.5, 1.0, 1.5, 2.0, 3.0)

#: offered logical queries per second at 1x.
BASE_RATE = 2.0

#: the interactive class's queue timeout (batch waits four times longer).
QUEUE_TIMEOUT = 0.5

#: client-perceived latency bound that defines a "good" completion.
SLO = 3.0

#: per-processor memory: 16 MiB per node against ~4 MiB of hash build
#: per query, so concurrent builds contend for node memory.
MEMORY_PER_PROCESSOR = 4 << 20

#: regime -> client retry policy; the regimes differ in nothing else.
REGIMES = (
    ("naive", RetryPolicySpec(
        max_attempts=None, base_backoff=QUEUE_TIMEOUT / 2,
        multiplier=1.0, jitter=0.1,
    )),
    ("graceful", None),
)


@dataclass(frozen=True)
class OverloadRow:
    """One (regime, offered load) cell of the sweep."""

    regime: str
    multiplier: float
    #: offered arrival rate (logical queries per second).
    offered: float
    completed: int
    #: logical queries abandoned after their final attempt was shed.
    gave_up: int
    #: resubmissions after backoff (total across logical queries).
    retries: int
    #: shed-reason counts (the taxonomy summary for the cell).
    shed_reasons: dict
    #: completions whose *client-perceived* latency (completion minus the
    #: logical query's original scheduled arrival) met the SLO.
    good: int
    #: within-SLO completions per second of run — the headline metric.
    goodput: float
    #: p95 client-perceived latency over completed logical queries.
    p95_client_latency: float


@dataclass(frozen=True)
class OverloadResult(SweepResult):
    """The goodput-vs-offered-load curve, one row per sweep cell."""

    queries: int
    slo: float

    @classmethod
    def assemble(cls, options, cells, rows) -> "OverloadResult":
        workload = cells[0].workload
        return cls(rows=tuple(rows), queries=workload.queries,
                   slo=workload.classes[0][0].latency_slo)

    def table(self) -> str:
        return pivot_table(
            self.rows, ("regime", "multiplier"),
            (("regime", {}, lambda r: r.regime),
             ("load", {}, lambda r: f"{r.multiplier:.1f}x"),
             ("offered (q/s)", {}, lambda r: f"{r.offered:.1f}"),
             ("completed", {}, lambda r: r.completed),
             ("gave up", {}, lambda r: r.gave_up),
             ("retries", {}, lambda r: r.retries),
             ("good", {}, lambda r: r.good),
             ("goodput (q/s)", {}, lambda r: f"{r.goodput:.2f}"),
             ("p95 client (s)", {}, lambda r: f"{r.p95_client_latency:.3f}")),
            title=(f"Goodput under overload ({self.queries} queries per "
                   f"cell, SLO {self.slo:.3f}s)"),
        )


def overload_scenarios(options: ExperimentOptions,
                       multipliers: tuple = LOAD_MULTIPLIERS,
                       queries_per_cell: Optional[int] = None) -> tuple:
    """Every sweep cell, labelled ``overload-<regime>-<multiplier>x``.

    Both regimes share plans, machine, execution parameters, classes,
    admission policy and the seeded arrival schedule; the *only*
    difference is the client retry policy (:data:`REGIMES`).
    """
    queries = queries_per_cell or 6 * options.workload_queries
    machines = MachineConfig(
        nodes=2, processors_per_node=4,
        memory_per_processor=MEMORY_PER_PROCESSOR,
    )
    plans = options.plan_mix()
    # "best" won the one sweep cell where the broker policy mattered
    # (96 queries, seed 11, graceful 2x: 1.25 vs 1.21 q/s under "all",
    # 45 completions each) and lost none.
    params = scaled_execution_params(scale=options.scale, seed=options.seed,
                                     cross_steal_policy="best")
    policy = AdmissionPolicy(max_multiprogramming=4,
                             queue_timeout=QUEUE_TIMEOUT)
    interactive = ServiceClass(
        name="interactive", weight=4.0, priority=10,
        latency_slo=SLO, queue_timeout=QUEUE_TIMEOUT,
    )
    batch = ServiceClass(
        name="batch", weight=1.0, priority=0,
        queue_timeout=4 * QUEUE_TIMEOUT,
    )
    cells = []
    for regime, retry in REGIMES:
        for multiplier in multipliers:
            workload = WorkloadSpec(
                queries=queries,
                arrival=ArrivalSpec(kind="poisson",
                                    rate=multiplier * BASE_RATE),
                policy=policy,
                classes=((interactive, 3.0), (batch, 1.0)),
                retry=retry,
                seed=options.seed,
            )
            cells.append(ScenarioSpec(
                cluster=machines, params=params, workload=workload,
                plans=plans, label=f"overload-{regime}-{multiplier!r}x",
            ))
    return tuple(cells)


def _client_latencies(workload, metrics) -> dict:
    """logical index -> client-perceived latency of its completion.

    The original arrival instant of logical query ``i`` is recomputed
    from the seeded schedule (identical streams derivation to the
    driver), so a completion reached via retries is charged its full
    client-side wait — backoffs included.
    """
    streams = RandomStreams(derive_seed(workload.seed, "workload"))
    times = sample_arrival_times(workload.arrival, workload.queries, streams)
    latencies = {}
    for completion in metrics.completions:
        index = completion.query_id % workload.queries
        latencies[index] = completion.completion_time - times[index]
    return latencies


def measure(cell: ScenarioSpec) -> OverloadRow:
    """Run one cell and reduce it to its row (runs in the worker).

    Regime and multiplier come back off the cell's label, the SLO off
    its interactive class — the cell is the whole configuration.
    """
    result = run_scenario(cell)
    scenario = result.scenario
    _prefix, regime, load = scenario.label.split("-")
    slo = scenario.workload.classes[0][0].latency_slo
    workload = result.workload
    metrics = workload.metrics
    latencies = _client_latencies(scenario.workload, metrics)
    good = sum(1 for latency in latencies.values() if latency <= slo)
    ordered = sorted(latencies.values())
    return OverloadRow(
        regime=regime, multiplier=float(load.removesuffix("x")),
        offered=scenario.workload.arrival.rate,
        completed=metrics.completed,
        gave_up=workload.clients.gave_up,
        retries=workload.clients.retries,
        shed_reasons=metrics.shed_reason_counts(),
        good=good,
        goodput=good / (metrics.makespan or 1.0),
        p95_client_latency=(ordered[int(0.95 * (len(ordered) - 1))]
                            if ordered else 0.0),
    )


register_experiment(
    "overload",
    "Graceful degradation under deep overload: shed queries dropped "
    "vs. a naive retry storm",
    cells=overload_scenarios, measure=measure,
    assemble=OverloadResult.assemble,
    expectation=PAPER_EXPECTATION,
)
