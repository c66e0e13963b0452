"""Workload driver: seeded query streams against one shared machine.

The top of the serving stack: a :class:`WorkloadDriver` turns a plan
population (anything from a single canned scenario plan to the 40-plan
paper workload of :mod:`repro.workloads.plans`) plus a
:class:`~repro.serving.spec.WorkloadSpec` into a running multi-query
simulation, and returns the aggregate
:class:`~repro.engine.metrics.WorkloadMetrics`.

Determinism contract: a driver run is a pure function of ``(plans,
config, spec, params)``.  Plan choice, arrival times and every
per-query engine stream (routing, trigger skew) derive from the
spec's master seed via named :class:`~repro.sim.rng.RandomStreams`; the
shared environment orders simultaneous events by its ``(time, priority,
sequence)`` heap.  Two identical runs produce byte-identical
``metrics.summary()`` output — the regression suite asserts exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..engine.metrics import WorkloadMetrics
from ..engine.params import ExecutionParams
from ..optimizer.plan import ParallelExecutionPlan
from ..sim.core import LOW
from ..sim.machine import MachineConfig
from ..sim.rng import RandomStreams, derive_seed
from .arrivals import sample_arrival_times
from .coordinator import MultiQueryCoordinator
from .spec import ServiceClass, WorkloadSpec
from .trace import NOOP_LOGGER, RunLogger, RunStarted, Trace

__all__ = ["ClientStats", "WorkloadRunResult", "WorkloadDriver"]


@dataclass
class ClientStats:
    """Explicit client-lifecycle accounting for one workload run.

    Makes visible what used to be silent: a closed-loop client that
    observes a shed (and a retrying client in backoff) contributes no
    load, shrinking the effective multiprogramming level below the
    nominal population.  ``served``, ``retries`` and ``gave_up`` are
    derived from the run's metrics once it ends
    (:meth:`WorkloadDriver.run`), so ``shed_count == retries + gave_up``
    holds by construction and ``served + gave_up`` must equal the logical
    queries; ``population`` and ``backoff_seconds`` are counted live.
    """

    #: closed-loop clients launched (0 for open-loop/replay runs).
    population: int = 0
    #: logical queries that eventually completed.
    served: int = 0
    #: logical queries abandoned after their final attempt was shed.
    gave_up: int = 0
    #: submissions with ``attempt > 0`` (total across all logical queries).
    retries: int = 0
    #: virtual seconds clients spent backing off — closed-loop, this is
    #: exactly the client-time the effective MPL lost to shedding.
    backoff_seconds: float = 0.0


@dataclass
class WorkloadRunResult:
    """A finished workload run: aggregate metrics plus provenance."""

    spec: WorkloadSpec
    config_label: str
    metrics: WorkloadMetrics
    admitted: int
    deferrals: int
    #: explicit client-lifecycle accounting (retries, give-ups, backoff).
    clients: ClientStats = field(default_factory=ClientStats)

    def __str__(self) -> str:
        m = self.metrics
        return (
            f"workload [{self.spec.strategy} on {self.config_label}, "
            f"{self.spec.arrival.kind}]: {m.completed} queries in "
            f"{m.makespan:.3f}s, {m.throughput():.2f} q/s, "
            f"p95 latency {m.p95_latency:.3f}s, "
            f"mean queueing {m.mean_queueing_delay():.3f}s"
        )


class WorkloadDriver:
    """Generates a seeded query stream and runs it to completion."""

    def __init__(self,
                 plans: Union[ParallelExecutionPlan,
                              Sequence[ParallelExecutionPlan]],
                 config: MachineConfig,
                 spec: Optional[WorkloadSpec] = None,
                 params: Optional[ExecutionParams] = None,
                 logger: Optional[RunLogger] = None,
                 trace: Optional[Trace] = None,
                 cluster=None, plan_bank=None, relations=()):
        if isinstance(plans, ParallelExecutionPlan):
            plans = [plans]
        if not plans:
            raise ValueError("need at least one plan to draw queries from")
        self.plans = list(plans)
        self.config = config
        self.spec = spec or WorkloadSpec()
        self.params = params or ExecutionParams()
        #: structured run-event sink (recording); NOOP by default.
        self.logger = logger or NOOP_LOGGER
        #: when set, replay this trace instead of generating arrivals.
        self.trace = trace
        #: elastic wiring (see :mod:`repro.cluster`): the ClusterSpec,
        #: the per-size plan bank (``{nodes: (plan, ...)}``) and the
        #: resident relations membership changes must rebalance.  All
        #: None/empty on a static cluster — zero behaviour change.
        self.cluster = cluster
        self.plan_bank = plan_bank
        self.relations = tuple(relations)
        if trace is not None:
            for q in trace.queries:
                if not 0 <= q.plan_index < len(self.plans):
                    raise ValueError(
                        f"trace query {q.query_id} references plan index "
                        f"{q.plan_index}, but the population has "
                        f"{len(self.plans)} plan(s)"
                    )
        self.streams = RandomStreams(derive_seed(self.spec.seed, "workload"))
        #: client-lifecycle accounting; reset by :meth:`build_coordinator`.
        self.client_stats = ClientStats()

    # -- per-query derivations ----------------------------------------------

    def _plan_index_for(self, index: int) -> int:
        """Deterministic plan choice for the ``index``-th submission.

        A pure function of ``(spec.seed, index)``: each query gets its own
        seeded draw rather than the next value of a shared stream, so the
        choice cannot depend on *when* the query is generated (closed-loop
        clients interleave submissions with completions) — the property
        trace replay relies on.
        """
        if len(self.plans) == 1:
            return 0
        rng = random.Random(derive_seed(self.spec.seed, f"plan:{index}"))
        return rng.randrange(len(self.plans))

    def _plan(self, coordinator: MultiQueryCoordinator,
              plan_index: int) -> ParallelExecutionPlan:
        """The plan to submit *now*: sized to the live membership.

        On an elastic cluster the submitted plan is the bank's
        compilation for the current planned node count (admission may
        re-resolve it again if membership changes while it queues); on a
        static cluster it is simply ``plans[plan_index]``.
        """
        if self.plan_bank is not None and coordinator.elastic is not None:
            return self.plan_bank[coordinator.planning_count][plan_index]
        return self.plans[plan_index]

    def _seed_for(self, index: int) -> int:
        """Per-query engine seed: an independent one per query, so two
        instances of the same plan do not draw identical routing skew."""
        return derive_seed(self.spec.seed, f"query:{index}")

    def _class_for(self, index: int) -> Optional[ServiceClass]:
        """Deterministic service-class draw for the ``index``-th query.

        Pure in ``(spec.seed, index)`` for the same reason as
        :meth:`_plan_index_for`.
        """
        classes = self.spec.classes
        if not classes:
            return None
        # A left fold (float ``sum()`` rounds differently from 3.12 on).
        total = 0.0
        for _cls, fraction in classes:
            total += fraction
        rng = random.Random(derive_seed(self.spec.seed, f"class:{index}"))
        point = rng.random() * total
        acc = 0.0
        for service_class, fraction in classes:
            acc += fraction
            if point < acc:
                return service_class
        return classes[-1][0]

    # -- arrival generators ---------------------------------------------------

    def _submit_attempt(self, coordinator: MultiQueryCoordinator,
                        index: int, attempt: int):
        """Submit the ``attempt``-th try of logical query ``index``.

        Retries are the *same* logical query — same plan draw, same
        service class, same per-query engine seed — under a fresh query
        id (``attempt * queries + index``, collision-free because the
        original ids are ``0..queries-1``; the coordinator does not check).
        """
        retry = self.spec.retry
        final = retry is not None and retry.is_final(attempt)
        plan_index = self._plan_index_for(index)
        query_id = index if attempt == 0 else attempt * self.spec.queries + index
        return coordinator.submit(
            self._plan(coordinator, plan_index),
            strategy=self.spec.strategy,
            seed=self._seed_for(index), query_id=query_id,
            service_class=self._class_for(index),
            plan_index=plan_index,
            attempt=attempt, final_attempt=final,
        )

    def _open_loop_arrivals(self, coordinator: MultiQueryCoordinator):
        """Submit the precomputed open-loop schedule, then close arrivals.

        With a retry policy, arrivals stay open past the schedule: each
        shed attempt re-enters the stream after its backoff, and the run
        only closes once every logical query has *resolved* — completed,
        or given up after its final attempt.
        """
        times = sample_arrival_times(
            self.spec.arrival, self.spec.queries, self.streams
        )
        env = coordinator.env
        retrying = self.spec.retry is not None
        state = {"generating": True, "outstanding": len(times)}
        for index, when in enumerate(times):
            # Absolute-instant scheduling: the heap stores the sampled
            # float itself, so the recorded arrival_time equals the
            # sampled schedule bit-for-bit (a chain of relative timeouts
            # would accumulate ``when - now`` round-off).
            if when > env.now:
                yield env.timeout_at(when)
            request = self._submit_attempt(coordinator, index, 0)
            if retrying:
                self._watch(coordinator, request, index, state)
        state["generating"] = False
        if retrying:
            self._maybe_close(coordinator, state)
        else:
            coordinator.close_arrivals()

    def _watch(self, coordinator: MultiQueryCoordinator, request,
               index: int, state: dict) -> None:
        """Arm the open-loop retry client for one submitted attempt."""
        request.done.callbacks.append(
            lambda _event, req=request: self._on_resolved(
                coordinator, req, index, state
            )
        )

    def _on_resolved(self, coordinator: MultiQueryCoordinator, request,
                     index: int, state: dict) -> None:
        retry = self.spec.retry
        next_attempt = request.attempt + 1
        if not request.shed or (retry.max_attempts is not None
                                and next_attempt >= retry.max_attempts):
            # Served, or given up: the logical query is resolved.
            state["outstanding"] -= 1
            self._maybe_close(coordinator, state)
            return
        delay = retry.backoff(self.spec.seed, index, next_attempt)
        self.client_stats.backoff_seconds += delay
        env = coordinator.env

        def resubmit():
            yield env.timeout(delay)
            again = self._submit_attempt(coordinator, index, next_attempt)
            self._watch(coordinator, again, index, state)

        env.process(resubmit(), name=f"retry:{index}:{next_attempt}")

    def _maybe_close(self, coordinator: MultiQueryCoordinator,
                     state: dict) -> None:
        if not state["generating"] and state["outstanding"] == 0:
            coordinator.close_arrivals()

    def _closed_loop_client(self, coordinator: MultiQueryCoordinator,
                            counter: list):
        """One closed-loop client: submit, wait, (maybe retry,) repeat.

        A retrying closed-loop client backs off *inline*: while it waits
        it submits nothing, so the effective multiprogramming level
        genuinely shrinks — :class:`ClientStats` makes that explicit
        instead of letting shed queries silently thin the population.
        """
        env = coordinator.env
        retry = self.spec.retry
        while counter[0] < self.spec.queries:
            index = counter[0]
            counter[0] += 1
            attempt = 0
            while True:
                request = self._submit_attempt(coordinator, index, attempt)
                yield request.done
                next_attempt = attempt + 1
                if not request.shed or retry is None or (
                        retry.max_attempts is not None
                        and next_attempt >= retry.max_attempts):
                    break
                delay = retry.backoff(self.spec.seed, index, next_attempt)
                self.client_stats.backoff_seconds += delay
                yield env.timeout(delay)
                attempt = next_attempt
        counter[1] -= 1
        if counter[1] == 0:
            coordinator.close_arrivals()

    def _trace_arrivals(self, coordinator: MultiQueryCoordinator):
        """Replay a recorded trace: exact instants, recorded shapes.

        Arrivals fire at the *absolute* recorded timestamps via
        ``timeout_at``, so the replayed schedule is bit-identical to the
        original.  A closed-loop trace needs one more care: its original
        submissions happened inside completion cascades, *after* the
        events of the same instant that triggered them — so its replayed
        arrivals use LOW priority, ordering them after every
        normal-priority event of their instant.  Open-loop traces replay
        at normal priority, exactly like the generating process.
        """
        trace = self.trace
        env = coordinator.env
        low = trace.closed_loop
        for q in trace.queries:
            if q.arrival_time > env.now:
                if low:
                    yield env.timeout_at(q.arrival_time, priority=LOW)
                else:
                    yield env.timeout_at(q.arrival_time)
            coordinator.submit(
                self._plan(coordinator, q.plan_index), strategy=q.strategy,
                seed=q.params_seed,
                query_id=q.query_id, service_class=q.service_class,
                plan_index=q.plan_index,
                attempt=q.attempt, final_attempt=q.final_attempt,
            )
        coordinator.close_arrivals()

    # -- the run ----------------------------------------------------------------

    @property
    def expected_queries(self) -> int:
        """Queries this run will submit (trace length in replay mode)."""
        if self.trace is not None:
            return len(self.trace.queries)
        return self.spec.queries

    def build_coordinator(self) -> MultiQueryCoordinator:
        """The coordinator with all arrival processes installed (not run).

        Exposed separately so tests and experiments can inspect or step
        the environment themselves.
        """
        coordinator = MultiQueryCoordinator(
            self.config, params=self.params, policy=self.spec.policy,
            logger=self.logger,
            cluster=self.cluster, plan_bank=self.plan_bank,
            relations=self.relations, placement=self.spec.placement,
        )
        #: fresh lifecycle accounting per built coordinator.
        self.client_stats = ClientStats()
        env = coordinator.env
        if self.logger.enabled:
            # Header first: replay needs the original arrival kind to
            # reproduce same-instant event ordering (see _trace_arrivals).
            if self.trace is not None:
                arrival_kind = self.trace.arrival_kind
            else:
                arrival_kind = self.spec.arrival.kind
            self.logger.log(RunStarted(
                time=env.now, queries=self.expected_queries,
                arrival_kind=arrival_kind, strategy=self.spec.strategy,
                seed=self.spec.seed,
            ))
        if self.trace is not None:
            env.process(self._trace_arrivals(coordinator), name="replay")
        elif self.spec.arrival.open_loop:
            env.process(self._open_loop_arrivals(coordinator), name="arrivals")
        else:
            population = min(self.spec.arrival.population, self.spec.queries)
            counter = [0, population]  # [next index, live clients]
            self.client_stats.population = population
            for client_id in range(population):
                env.process(
                    self._closed_loop_client(coordinator, counter),
                    name=f"client:{client_id}",
                )
        return coordinator

    def run(self) -> WorkloadRunResult:
        """Run the whole workload to completion.

        Every logical query must be *resolved* — completed, or shed with
        no attempts left; anything else is a bug.  The client facts are
        derived one way in every mode (live, retrying or replayed):
        ``served`` is the completions, ``retries`` the submissions with
        ``attempt > 0``, and every shed attempt was either retried or
        terminal, so ``gave_up`` is the sheds minus the retries.
        """
        coordinator = self.build_coordinator()
        metrics = coordinator.run()
        stats = self.client_stats
        stats.served = metrics.completed
        stats.retries = metrics.retries
        stats.gave_up = metrics.shed_count - metrics.retries
        if self.trace is None:
            logical = self.spec.queries
        else:
            # A replay submits every recorded attempt: its logical queries
            # are the submissions that were not retries.
            logical = len(self.trace.queries) - metrics.retries
        if stats.served + stats.gave_up != logical:
            raise RuntimeError(
                f"workload incomplete: {stats.served} served + "
                f"{stats.gave_up} gave up != {logical} logical queries"
            )
        result = WorkloadRunResult(
            spec=self.spec,
            config_label=self.config.describe(),
            metrics=metrics,
            admitted=coordinator.admission.admitted,
            deferrals=coordinator.admission.deferrals,
            clients=stats,
        )
        coordinator.close()
        return result
