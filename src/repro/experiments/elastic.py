"""Elastic cluster under a flash crowd: autoscaling vs. static provisioning.

Not a paper figure — the ROADMAP's elasticity arc.  The paper sizes its
hierarchical machine once and studies intra-query balancing; this
experiment lets the *node set itself* respond to load.  One bursty
workload (a flash crowd over a modest base rate) runs against three
cluster regimes built from the same physical machine model:

* ``static-small`` — the cluster stays at the starting node count: cheap
  standing capacity, but the burst queues behind the MPL gate;
* ``static-big`` — the full footprint from the start: the burst's tail
  latency target, at maximum standing capacity;
* ``elastic`` — starts small; an autoscaler grows the membership when
  utilization crosses its target (paying provisioning latency and the
  explicit partition-movement bytes) and shrinks it again when the crowd
  passes (draining nodes finish their in-flight queries first).

The table prices the elasticity explicitly, DynaHash-style: bytes moved
by online rebalancing against processors of capacity gained, next to the
tail latency each regime achieves.  Everything runs through the
declarative scenario API (:class:`~repro.api.spec.ScenarioSpec` with a
:class:`~repro.cluster.spec.ClusterSpec`), so each row is one
serializable spec.

The determinism gate pins :meth:`ElasticResult.digest`: the membership
trajectories and movement totals, and the latency columns as raw floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..api.facade import run as run_scenario
from ..api.spec import ScenarioSpec
from ..cluster.spec import AutoscalerSpec, ClusterSpec
from ..serving.spec import AdmissionPolicy, ArrivalSpec, WorkloadSpec
from ..sim.machine import MachineConfig
from .config import ExperimentOptions, scaled_execution_params
from .registry import register_experiment
from .reporting import SweepResult, pivot_table

__all__ = ["ElasticResult", "ElasticRow", "elastic_scenarios", "measure"]

PAPER_EXPECTATION = (
    "The autoscaled cluster tracks the big static cluster's tail latency "
    "far closer than the small one does, while holding the small "
    "footprint outside the burst; the price is an explicit, measured "
    "movement cost (rebalance bytes per processor gained)."
)


@dataclass(frozen=True)
class ElasticRow:
    """One cluster regime's outcome over the shared bursty workload."""

    label: str
    #: membership trajectory: "4" for a static cluster, "2->4->2"
    #: (start -> peak -> low) for an elastic one.
    nodes: str
    completed: int
    shed: int
    p95_latency: float
    mean_queueing: float
    #: full ``WorkloadMetrics.cluster_summary()`` dict, or ``None`` for
    #: a run whose membership never changed.
    cluster: Optional[dict]

    @property
    def rebalance_bytes(self) -> int:
        return self.cluster["rebalance_bytes"] if self.cluster else 0

    @property
    def gained_processors(self) -> int:
        return self.cluster["load_gained_processors"] if self.cluster else 0


@dataclass(frozen=True)
class ElasticResult(SweepResult):
    """One row per cluster regime, over the identical bursty workload."""

    queries: int

    @classmethod
    def assemble(cls, options, cells, rows) -> "ElasticResult":
        return cls(rows=tuple(rows), queries=cells[0].workload.queries)

    def table(self) -> str:
        return pivot_table(
            self.rows, "label",
            (("cluster", {}, lambda r: r.label),
             ("nodes", {}, lambda r: r.nodes),
             ("completed", {}, lambda r: r.completed),
             ("shed", {}, lambda r: r.shed),
             ("p95 latency (s)", {}, lambda r: f"{r.p95_latency:.4f}"),
             ("mean queueing (s)", {}, lambda r: f"{r.mean_queueing:.4f}"),
             ("moved (KB)", {}, lambda r: f"{r.rebalance_bytes / 1024:.0f}"),
             ("procs gained", {}, lambda r: r.gained_processors)),
            title=(f"Elastic cluster under a flash crowd "
                   f"({self.queries} queries)"),
        )

    def digest(self) -> str:
        """Outcome lines — what the determinism gate pins.

        Per row, the discrete outcomes (counts, byte totals, the
        membership trajectory), then a second block with the latency
        columns of :meth:`table` as raw floats.
        """
        lines = []
        for row in self.rows:
            line = (f"{row.label}: nodes={row.nodes} "
                    f"completed={row.completed} shed={row.shed}")
            if row.cluster is not None:
                c = row.cluster
                line += (f" joins={c['node_joins']} "
                         f"leaves={c['node_leaves']} "
                         f"rebalances={c['rebalances']} "
                         f"moves={c['rebalance_moves']} "
                         f"bytes={c['rebalance_bytes']} "
                         f"procs={c['load_gained_processors']}")
            lines.append(line)
        lines += [
            f"{row.label} latency: p95={row.p95_latency!r} "
            f"queueing={row.mean_queueing!r}"
            for row in self.rows
        ]
        return "\n".join(lines)


def elastic_scenarios(options: ExperimentOptions,
                      small_nodes: int = 2, big_nodes: int = 4,
                      processors_per_node: int = 4,
                      base_rate: float = 30.0,
                      target_utilization: float = 0.6,
                      scale_out_latency: float = 0.05,
                      cooldown: float = 0.1) -> tuple:
    """The three regimes of the comparison, labelled by regime."""
    params = scaled_execution_params(
        scale=options.scale, seed=options.seed,
    )
    machines = MachineConfig(nodes=big_nodes,
                             processors_per_node=processors_per_node)
    workload = WorkloadSpec(
        queries=4 * options.workload_queries,
        arrival=ArrivalSpec(kind="bursty", rate=base_rate,
                            burst_size=2 * options.workload_queries,
                            burst_speedup=20.0),
        policy=AdmissionPolicy(max_multiprogramming=2 * big_nodes),
        seed=options.seed,
    )

    def scenario(label: str, cluster: ClusterSpec) -> ScenarioSpec:
        return ScenarioSpec(
            cluster=cluster, params=params, workload=workload,
            plans=options.plan_mix(), label=label,
        )

    return (
        scenario("static-small", ClusterSpec(
            machines=MachineConfig(nodes=small_nodes,
                                   processors_per_node=processors_per_node),
        )),
        scenario("static-big", ClusterSpec(machines=machines)),
        scenario("elastic", ClusterSpec(
            machines=machines, initial_nodes=small_nodes,
            autoscaler=AutoscalerSpec(
                target_utilization=target_utilization,
                scale_in_utilization=0.15,
                scale_out_latency=scale_out_latency,
                cooldown=cooldown, interval=0.05,
                min_nodes=small_nodes,
            ),
        )),
    )


def measure(cell: ScenarioSpec) -> ElasticRow:
    """Run one regime and reduce it to its row (runs in the worker)."""
    result = run_scenario(cell)
    scenario = result.scenario
    metrics = result.metrics
    cluster = metrics.cluster_summary()
    if cluster is None:
        nodes = str(scenario.cluster.machines.nodes)
    else:
        nodes = (f"{scenario.cluster.active_at_start}"
                 f"->{cluster['peak_nodes']}->{cluster['low_nodes']}")
    return ElasticRow(
        label=scenario.label, nodes=nodes,
        completed=metrics.completed, shed=metrics.shed_count,
        p95_latency=metrics.p95_latency,
        mean_queueing=metrics.mean_queueing_delay(),
        cluster=cluster,
    )


register_experiment(
    "elastic",
    "Elastic cluster: autoscaled membership vs. static provisioning "
    "under a flash crowd",
    cells=elastic_scenarios, measure=measure,
    assemble=ElasticResult.assemble,
    expectation=PAPER_EXPECTATION,
)
