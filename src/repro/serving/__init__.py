"""Serving layer: concurrent query streams on one simulated machine.

The paper (and :mod:`repro.engine`) executes one query at a time; the
ROADMAP's north star is a system serving sustained traffic.  This package
adds the missing regime — multiprogramming — without forking the engine:

* :class:`SharedSubstrate` — the engine's one machine builder, shared by
  many executions: adds the broker (:mod:`repro.serving.substrate`);
* :class:`ArrivalSpec` — open-loop (Poisson, bursty) and closed-loop
  arrival processes (:mod:`repro.serving.arrivals`);
* :class:`AdmissionController` — gates admissions on multiprogramming
  level and live free node memory, plus per-class gates and open-loop
  overload handling (queue timeouts, deadline shedding)
  (:mod:`repro.serving.admission`);
* :class:`ServiceClass` — per-population scheduling/admission contracts
  (weight, priority, latency SLO) consumed by the pluggable CPU
  scheduling disciplines (``fifo`` / ``fair`` / ``priority``, see
  :mod:`repro.sim.core`) (:mod:`repro.serving.classes`);
* :class:`MultiQueryCoordinator` — runs many ``ExecutionContext``s in one
  environment so threads contend for processors and the steal protocol
  balances load under inter-query pressure
  (:mod:`repro.serving.coordinator`, with its per-class pending FIFOs in
  :mod:`repro.serving.pending` and memory preemption in
  :mod:`repro.serving.preemption`);
* :class:`CrossQueryBroker` — turns any query's idle-thread signal into
  machine-share stealing by co-resident queries
  (:mod:`repro.serving.broker`);
* :class:`WorkloadDriver` — seeded end-to-end workload runs returning
  :class:`~repro.engine.metrics.WorkloadMetrics`
  (:mod:`repro.serving.driver`).

The declarative surface over all of this is :mod:`repro.api`: a
:class:`~repro.api.spec.ScenarioSpec` composes a cluster, engine params
and a :class:`WorkloadSpec` into one serializable tree, and
``repro.run(scenario)`` does the wiring below.

Quickstart::

    import repro
    from repro.api import PlanSpec, ScenarioSpec
    from repro.serving import ArrivalSpec, WorkloadSpec
    from repro.sim import MachineConfig

    scenario = ScenarioSpec(
        cluster=MachineConfig(nodes=2, processors_per_node=4),
        workload=WorkloadSpec(
            queries=16, arrival=ArrivalSpec(kind="closed", population=8)
        ),
        plans=PlanSpec(kind="pipeline_chain"),
    )
    result = repro.run(scenario)
    print(result.metrics.throughput(), result.metrics.p95_latency)

The driver remains the underlying engine (and takes explicit plan
objects directly)::

    from repro.serving import ArrivalSpec, WorkloadDriver, WorkloadSpec
    from repro.workloads import pipeline_chain_scenario

    plan, config = pipeline_chain_scenario(nodes=2, processors_per_node=4)
    spec = WorkloadSpec(queries=16,
                        arrival=ArrivalSpec(kind="closed", population=8))
    result = WorkloadDriver(plan, config, spec).run()
    print(result.metrics.throughput(), result.metrics.p95_latency)
"""

from ..engine.metrics import QueryCompletion, QueryShed
from .admission import AdmissionController, AdmissionPolicy, estimated_node_demand
from .arrivals import ArrivalSpec, sample_arrival_times
from .broker import CrossQueryBroker
from .classes import BATCH, DEFAULT_CLASS, INTERACTIVE, ServiceClass
from .coordinator import MultiQueryCoordinator
from .driver import (ClientStats, RetryPolicySpec, WorkloadDriver,
                     WorkloadRunResult, WorkloadSpec)
from .pending import QueryRequest
from .substrate import SharedSubstrate
from .trace import (NOOP_LOGGER, JsonLinesLogger, MemoryLogger, NoopLogger,
                    RunLogger, Trace, TraceQuery, read_events)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "estimated_node_demand",
    "ArrivalSpec",
    "sample_arrival_times",
    "BATCH",
    "DEFAULT_CLASS",
    "INTERACTIVE",
    "ServiceClass",
    "ClientStats",
    "CrossQueryBroker",
    "MultiQueryCoordinator",
    "QueryCompletion",
    "QueryRequest",
    "QueryShed",
    "RetryPolicySpec",
    "WorkloadDriver",
    "WorkloadRunResult",
    "WorkloadSpec",
    "SharedSubstrate",
    "JsonLinesLogger",
    "MemoryLogger",
    "NOOP_LOGGER",
    "NoopLogger",
    "RunLogger",
    "Trace",
    "TraceQuery",
    "read_events",
]
