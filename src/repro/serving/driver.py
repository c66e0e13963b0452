"""Workload driver: seeded query streams against one shared machine.

The top of the serving stack: a :class:`WorkloadDriver` turns a plan
population (anything from a single canned scenario plan to the 40-plan
paper workload of :mod:`repro.workloads.plans`) plus a
:class:`~repro.serving.arrivals.ArrivalSpec` into a running multi-query
simulation, and returns the aggregate
:class:`~repro.engine.metrics.WorkloadMetrics`.

Determinism contract: a driver run is a pure function of ``(plans,
config, spec, params)``.  Plan choice, arrival times, think times and
every per-query engine stream (routing, trigger skew) derive from the
spec's master seed via named :class:`~repro.sim.rng.RandomStreams`; the
shared environment orders simultaneous events by its ``(time, priority,
sequence)`` heap.  Two identical runs produce byte-identical
``metrics.summary()`` output — the regression suite asserts exactly that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..engine.metrics import WorkloadMetrics
from ..engine.params import ExecutionParams
from ..optimizer.plan import ParallelExecutionPlan
from ..placement.spec import PlacementSpec
from ..sim.core import LOW
from ..sim.machine import MachineConfig
from ..sim.rng import RandomStreams, derive_seed
from .admission import AdmissionPolicy
from .arrivals import ArrivalSpec, sample_arrival_times
from .classes import ServiceClass
from .coordinator import MultiQueryCoordinator
from .trace import NOOP_LOGGER, RunLogger, RunStarted, Trace

__all__ = ["RetryPolicySpec", "ClientStats", "WorkloadSpec",
           "WorkloadRunResult", "WorkloadDriver"]


@dataclass(frozen=True)
class RetryPolicySpec:
    """How clients react to a shed query: jittered exponential backoff.

    A shed query's client resubmits after a backoff, up to
    ``max_attempts`` total submissions; the *final* attempt's shed is
    recorded as ``retries_exhausted`` (the client gives up).  With
    ``max_attempts=None`` the client retries forever — the naive
    configuration whose retry storms the overload experiment shows
    collapsing into metastable failure.

    Determinism: the backoff before attempt ``k`` of logical query
    ``index`` is a pure function of ``(seed, index, k)`` —
    :meth:`backoff` draws its jitter from a seed derived with
    ``derive_seed(seed, f"retry:{index}:{k}")``, never from a shared
    stream, so the retry schedule cannot depend on completion
    interleaving (the same purity contract as plan/class draws).
    """

    #: total submissions allowed per logical query (1 = no retries);
    #: None retries without bound.
    max_attempts: Optional[int] = 4
    #: backoff before the first retry, in virtual seconds.
    base_backoff: float = 1.0
    #: exponential growth factor per further retry.
    multiplier: float = 2.0
    #: cap on the raw (pre-jitter) backoff; None leaves it uncapped.
    max_backoff: Optional[float] = None
    #: fraction of the backoff randomized away (0 = deterministic full
    #: backoff, 1 = uniform in (0, backoff]) — decorrelates clients shed
    #: at the same instant so they do not re-arrive as one thundering
    #: herd.
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1 or None, got {self.max_attempts}"
            )
        if not self.base_backoff > 0:
            raise ValueError(
                f"base_backoff must be positive, got {self.base_backoff}"
            )
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_backoff is not None and self.max_backoff <= 0:
            raise ValueError(
                f"max_backoff must be positive, got {self.max_backoff}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def backoff(self, seed: int, index: int, attempt: int) -> float:
        """Backoff before the ``attempt``-th submission (attempt >= 1)."""
        raw = self.base_backoff * self.multiplier ** (attempt - 1)
        if self.max_backoff is not None:
            raw = min(raw, self.max_backoff)
        rng = random.Random(derive_seed(seed, f"retry:{index}:{attempt}"))
        return raw * (1.0 - self.jitter * rng.random())

    def is_final(self, attempt: int) -> bool:
        """Whether the ``attempt``-th submission is the client's last."""
        return (self.max_attempts is not None
                and attempt >= self.max_attempts - 1)


@dataclass
class ClientStats:
    """Explicit client-lifecycle accounting for one workload run.

    Makes visible what used to be silent: a closed-loop client that
    observes a shed (and a retrying client in backoff) contributes no
    load, shrinking the effective multiprogramming level below the
    nominal population.  The identities the regression suite asserts:
    ``served + gave_up == spec.queries`` and ``shed_count == retries +
    gave_up`` (every shed attempt was either retried or terminal).
    """

    #: closed-loop clients launched (0 for open-loop/replay runs).
    population: int = 0
    #: logical queries that eventually completed.
    served: int = 0
    #: logical queries abandoned after their final attempt was shed.
    gave_up: int = 0
    #: resubmissions after backoff (total across all logical queries).
    retries: int = 0
    #: virtual seconds clients spent backing off — closed-loop, this is
    #: exactly the client-time the effective MPL lost to shedding.
    backoff_seconds: float = 0.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one multi-query workload run."""

    #: total queries to submit and resolve (completed or shed).
    queries: int = 16
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: execution strategy for every query ("DP", "FP" or "SP").
    strategy: str = "DP"
    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: service-class mix as (class, proportion) pairs; each query draws
    #: its class from this distribution (proportions are normalized).
    #: Empty: every query runs as the default class, exactly the
    #: pre-service-class behaviour.
    classes: tuple[tuple[ServiceClass, float], ...] = ()
    #: client retry behaviour on shed queries; None (default) keeps the
    #: pre-retry behaviour — a shed query is simply gone.
    retry: Optional[RetryPolicySpec] = None
    #: admission-time cluster scheduler (see :mod:`repro.placement`);
    #: the default ``paper`` policy is a strict no-op.
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    #: master seed: plan choice, arrivals, think times and all per-query
    #: engine randomness derive from it.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ValueError(f"queries must be >= 1, got {self.queries}")
        if self.strategy not in ("DP", "FP", "SP"):
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                "expected 'DP', 'FP' or 'SP'"
            )
        if any(
            fraction <= 0 or not math.isfinite(fraction)
            for _cls, fraction in self.classes
        ):
            raise ValueError("class proportions must be positive and finite")
        names = [cls.name for cls, _fraction in self.classes]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"duplicate service-class name(s) {dupes}: metrics are "
                "keyed by class name, so two distinct classes sharing one "
                "would be silently merged"
            )


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
                 metrics: Optional[WorkloadMetrics] = None,
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
        #: optional metrics sink forwarded to the coordinator (e.g. a
        #: non-retaining WorkloadMetrics for million-query replays).
        self.metrics = metrics
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

    def _params_for(self, index: int) -> ExecutionParams:
        """Per-query engine params: an independent seed per query, so two
        instances of the same plan do not draw identical routing skew."""
        return self.params.with_seed(
            derive_seed(self.spec.seed, f"query:{index}")
        )

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
        original ids are ``0..queries-1``).
        """
        retry = self.spec.retry
        final = retry is not None and retry.is_final(attempt)
        plan_index = self._plan_index_for(index)
        query_id = index if attempt == 0 else attempt * self.spec.queries + index
        return coordinator.submit(
            self._plan(coordinator, plan_index),
            strategy=self.spec.strategy,
            params=self._params_for(index), query_id=query_id,
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
        stats = self.client_stats
        if not request.shed:
            stats.served += 1
            state["outstanding"] -= 1
            self._maybe_close(coordinator, state)
            return
        next_attempt = request.attempt + 1
        if retry.max_attempts is not None and next_attempt >= retry.max_attempts:
            stats.gave_up += 1
            state["outstanding"] -= 1
            self._maybe_close(coordinator, state)
            return
        delay = retry.backoff(self.spec.seed, index, next_attempt)
        stats.retries += 1
        stats.backoff_seconds += delay
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
                            client_id: int, counter: list):
        """One closed-loop client: submit, wait, (maybe retry,) think, repeat.

        A retrying closed-loop client backs off *inline*: while it waits
        it submits nothing, so the effective multiprogramming level
        genuinely shrinks — :class:`ClientStats` makes that explicit
        instead of letting shed queries silently thin the population.
        """
        env = coordinator.env
        retry = self.spec.retry
        stats = self.client_stats
        think_rng = self.streams.stream(f"think:{client_id}")
        while counter[0] < self.spec.queries:
            index = counter[0]
            counter[0] += 1
            attempt = 0
            while True:
                request = self._submit_attempt(coordinator, index, attempt)
                yield request.done
                if not request.shed:
                    if retry is not None:
                        stats.served += 1
                    break
                next_attempt = attempt + 1
                if retry is None or (
                        retry.max_attempts is not None
                        and next_attempt >= retry.max_attempts):
                    if retry is not None:
                        stats.gave_up += 1
                    break
                delay = retry.backoff(self.spec.seed, index, next_attempt)
                stats.retries += 1
                stats.backoff_seconds += delay
                yield env.timeout(delay)
                attempt = next_attempt
            think = self.spec.arrival.think_time
            if think > 0 and counter[0] < self.spec.queries:
                yield env.timeout(think_rng.expovariate(1.0 / think))
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
                params=self.params.with_seed(q.params_seed),
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
            logger=self.logger, metrics=self.metrics,
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
                    self._closed_loop_client(coordinator, client_id, counter),
                    name=f"client:{client_id}",
                )
        return coordinator

    def run(self) -> WorkloadRunResult:
        """Run the whole workload to completion.

        Every logical query must be *resolved* — completed, or shed with
        no attempts left; anything else is a bug.  With retries the shed
        count exceeds the give-up count (each retried attempt records its
        own shed), so the accounting identities differ from the plain
        ``completed + shed == queries``.
        """
        coordinator = self.build_coordinator()
        metrics = coordinator.run()
        stats = self.client_stats
        expected = self.expected_queries
        if self.trace is not None:
            # Replay reproduces recorded submissions; reconstruct the
            # client facts the trace determines.  Every shed attempt was
            # either retried or terminal, so ``gave_up`` falls out of
            # ``shed_count == retries + gave_up``.  ``backoff_seconds``
            # stays 0: the backoffs are baked into the recorded arrival
            # instants, not stated separately.
            stats.retries = len(
                [q for q in self.trace.queries if q.attempt > 0]
            )
            stats.gave_up = metrics.shed_count - stats.retries
            stats.served = metrics.completed
        elif self.spec.retry is None:
            stats.served = metrics.completed
            stats.gave_up = metrics.shed_count
        metrics.retries = stats.retries
        if self.trace is not None or self.spec.retry is None:
            if metrics.completed + metrics.shed_count != expected:
                raise RuntimeError(
                    f"workload incomplete: {metrics.completed} of "
                    f"{expected} queries finished "
                    f"({metrics.shed_count} shed)"
                )
        else:
            if stats.served + stats.gave_up != expected:
                raise RuntimeError(
                    f"workload incomplete: {stats.served} served + "
                    f"{stats.gave_up} gave up != {expected} logical queries"
                )
            if metrics.completed + metrics.shed_count != (
                    expected + stats.retries):
                raise RuntimeError(
                    f"retry accounting broken: {metrics.completed} completed "
                    f"+ {metrics.shed_count} shed != {expected} + "
                    f"{stats.retries} retries submissions"
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
