"""Serving layer: concurrent query streams on one simulated machine.

The paper (and :mod:`repro.engine`) executes one query at a time; the
ROADMAP's north star is a system serving sustained traffic.  This package
adds the missing regime — multiprogramming — without forking the engine.

The package re-exports its value types only (:mod:`repro.serving.spec`:
:class:`WorkloadSpec`, :class:`ArrivalSpec`, :class:`AdmissionPolicy`,
:class:`RetryPolicySpec`, :class:`TraceGenSpec`, :class:`ServiceClass`),
so decoding a scenario never loads the runtime.  The runtime classes are
imported from the module that defines them:

* :func:`~repro.serving.arrivals.sample_arrival_times` — open-loop
  (Poisson, bursty) arrival schedules;
* :class:`~repro.serving.admission.AdmissionController` — gates
  admissions on multiprogramming level and live free node memory, plus
  open-loop overload handling (queue timeouts, deadline shedding);
* :class:`~repro.serving.coordinator.MultiQueryCoordinator` — runs many
  ``ExecutionContext``s on one :class:`~repro.engine.substrate.Substrate`,
  into which it installs the broker, so threads contend for processors
  and the steal protocol balances load under inter-query pressure.  A
  query brings its plan and a seed and runs under the machine's params.
  The per-class pending FIFOs are in :mod:`repro.serving.pending`, memory
  preemption in :mod:`repro.serving.preemption`;
* :class:`~repro.serving.broker.CrossQueryBroker` — turns any query's
  idle-thread signal into machine-share stealing by co-resident queries;
* :class:`~repro.serving.driver.WorkloadDriver` — seeded end-to-end
  workload runs returning :class:`~repro.engine.metrics.WorkloadMetrics`;
* :mod:`repro.serving.trace` — structured run events, recording and
  replayable traces.

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

    from repro.serving import ArrivalSpec, WorkloadSpec
    from repro.serving.driver import WorkloadDriver
    from repro.workloads import pipeline_chain_scenario

    plan, config = pipeline_chain_scenario(nodes=2, processors_per_node=4)
    spec = WorkloadSpec(queries=16,
                        arrival=ArrivalSpec(kind="closed", population=8))
    result = WorkloadDriver(plan, config, spec).run()
    print(result.metrics.throughput(), result.metrics.p95_latency)
"""

from .spec import (BATCH, DEFAULT_CLASS, INTERACTIVE, AdmissionPolicy,
                   ArrivalSpec, RetryPolicySpec, ServiceClass, TraceGenSpec,
                   WorkloadSpec)

__all__ = [
    "AdmissionPolicy",
    "ArrivalSpec",
    "BATCH",
    "DEFAULT_CLASS",
    "INTERACTIVE",
    "RetryPolicySpec",
    "ServiceClass",
    "TraceGenSpec",
    "WorkloadSpec",
]
