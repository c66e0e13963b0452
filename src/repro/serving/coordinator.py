"""Multi-query coordinator: many executions, one machine, one clock.

Maps the paper's Section 4 runtime onto multiprogramming.  In the paper,
query execution starts by creating one thread per processor plus a
scheduler thread per SM-node, all dedicated to the single query.  Under
the coordinator each admitted query still gets exactly that — its own
:class:`~repro.engine.context.ExecutionContext` with per-node
:class:`~repro.engine.scheduler.NodeScheduler` instances and one
:class:`~repro.engine.thread_exec.ExecutionThread` per processor — but
the *physical* processors, disks and node memory come from a
:class:`~repro.serving.substrate.SharedSubstrate`, so the threads of
concurrent queries FIFO-share each processor at activation granularity
(the node OS time-slicing the paper delegates to the KSR1).  Activation
queues, the steal protocol, flow control and operator-end detection all
run per query, unchanged; what becomes *inter-query* is the contention —
CPU, disk arms, memory — and the provider-ranking load signal of the
steal protocol (``Substrate.node_load``).

Lifecycle of a query: ``submit()`` (arrival) -> admission queue (FIFO
within a service class, strict class priority across classes) ->
:class:`~repro.serving.admission.AdmissionController` releases it
(start) -> execution on the shared substrate -> root operator terminates
(completion), recorded as a :class:`~repro.engine.metrics.QueryCompletion`
with its queueing delay and execution time separated.  Under an
overload policy a queued query may instead be *shed* (queue timeout or
expired SLO deadline): its ``done`` event fires with an explicit
:class:`~repro.engine.metrics.QueryShed` and the rejection is recorded
as a :class:`~repro.engine.metrics.ShedRecord`.

SP queries are coordinated too (single-node substrates only), through
the same ``launch`` -> ``finished`` -> ``collect`` protocol: the SP
executor's driver process runs inside the shared environment and its
workers charge the shared processors, so SP streams contend with
activation-model queries — mixed-strategy workloads are legal.

Beside this module: the per-class pending FIFOs
(:mod:`repro.serving.pending`), victim suspension for memory-blocked
heads (:mod:`repro.serving.preemption`) and cross-query machine-share
stealing (:mod:`repro.serving.broker`, owned by the substrate).
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Optional

from ..engine.context import ExecutionDeadlock
from ..engine.executor import QueryExecutor
from ..engine.metrics import (QueryCompletion, QueryShed, ShedRecord,
                              WorkloadMetrics)
from ..engine.params import ExecutionParams
from ..engine.strategies.base import StrategyError
from ..engine.template import ExecutionTemplate
from ..optimizer.plan import ParallelExecutionPlan
from ..placement.base import ClusterView, place_plan
from ..placement.policies import get_policy
from ..sim.core import Event
from ..sim.machine import MachineConfig
from .admission import AdmissionController
from .pending import PendingQueues, QueryRequest
from .preemption import MemoryPreemptor
from .spec import DEFAULT_CLASS, AdmissionPolicy, ServiceClass
from .substrate import SharedSubstrate
from .trace import (NOOP_LOGGER, QueryAdmitted, QueryFinished, QueryPlaced,
                    QueryShedEvent, QueryStarted, QuerySubmitted, RunLogger)

__all__ = ["MultiQueryCoordinator"]


class MultiQueryCoordinator:
    """Runs many query executions inside one shared environment."""

    def __init__(self, config: MachineConfig,
                 params: Optional[ExecutionParams] = None,
                 policy: AdmissionPolicy = AdmissionPolicy(),
                 logger: Optional[RunLogger] = None,
                 cluster=None, plan_bank=None, relations=(),
                 placement=None):
        self.config = config
        self.params = params or ExecutionParams()
        self.substrate = SharedSubstrate(config, self.params)
        #: structured run-event sink; installed on the substrate so the
        #: engine's steal protocol logs through the same stream.
        self.logger = logger or NOOP_LOGGER
        self.substrate.logger = self.logger
        self.admission = AdmissionController(self.substrate, policy)
        self.env = self.substrate.env
        self.pending = PendingQueues()
        self.running: dict[int, QueryRequest] = {}
        #: the one :class:`ServiceClass` seen under each name this run.
        self._classes: dict[str, ServiceClass] = {}
        #: highest number of simultaneously executing queries observed —
        #: the admission tests assert it never exceeds the policy cap.
        self.peak_running = 0
        #: the run's aggregates, filled as queries complete or are shed.
        self.metrics = WorkloadMetrics()
        self._arrivals_open = True
        self._kick: Optional[Event] = None
        self._next_query_id = 0
        self._next_seq = 0
        self._used_query_ids: set[int] = set()
        #: virtual instant the armed shed timer targets (None: no timer).
        self._shed_timer_at: Optional[float] = None
        #: the machine an execution planned over ``n`` nodes spans, per
        #: ``n`` (the whole machine unless the cluster is elastic).
        self._configs: dict[int, MachineConfig] = {config.nodes: config}
        #: the execution template of each ``(plan index, planned node
        #: count)`` launched so far — built on the first DP/FP launch,
        #: dropped with the coordinator (see :mod:`repro.engine.template`).
        self._templates: dict[tuple, ExecutionTemplate] = {}
        # Mid-execution memory releases (probe ends freeing hash tables)
        # re-evaluate admission without waiting for a whole completion.
        self.substrate.on_memory_release = self._poke
        self.preemption = MemoryPreemptor(
            self.env, self.admission, self.substrate, self.metrics,
            self.logger, self.running, poke=self._poke,
        )
        #: plans per cluster size (``{nodes: (plan, ...)}``) — the plan
        #: bank admission re-resolves against when membership changes.
        self.plan_bank = plan_bank
        #: admission-time placement (:class:`~repro.placement.spec.
        #: PlacementSpec`); the default ``paper`` scheduler (or None)
        #: takes the exact pre-placement code path — no view is built,
        #: no plan is rewritten, no counter or event is emitted.
        self.placement = placement
        if placement is not None and placement.scheduler != "paper":
            self._placement_policy = get_policy(placement.scheduler)
        else:
            self._placement_policy = None
        #: the elastic-cluster runtime; None on a static cluster, in
        #: which case *nothing* else in this module changes behaviour.
        self.elastic = None
        if cluster is not None and cluster.elastic:
            from ..cluster.runtime import ElasticCluster  # late (cycle)
            self.elastic = ElasticCluster(self, cluster, relations)
        self._admission_process = self.env.process(
            self._admission_loop(), name="admission"
        )

    # -- submission (called at arrival time, inside the simulation) ---------

    def submit(self, plan: ParallelExecutionPlan,
               strategy: Optional[str] = None,
               params: Optional[ExecutionParams] = None,
               query_id: Optional[int] = None,
               service_class: Optional[ServiceClass] = None,
               plan_index: Optional[int] = None,
               attempt: int = 0,
               final_attempt: bool = False) -> QueryRequest:
        """Register an arriving query; it executes when admission allows."""
        if not self._arrivals_open:
            raise RuntimeError("arrivals are closed; cannot submit")
        if (strategy or "DP").upper() == "SP" and self.config.nodes != 1:
            # Fail at submission, not deep inside the admission loop: SP
            # is the shared-memory model and only runs on 1-node machines.
            raise StrategyError(
                "SP queries need a single-SM-node substrate; this machine "
                f"has {self.config.nodes} nodes"
            )
        if params is not None:
            # The processors, disks and network link were built with the
            # substrate's disciplines; a per-query override would be
            # silently ignored.
            for knob in ("cpu_discipline", "disk_discipline",
                         "net_discipline"):
                if getattr(params, knob) != getattr(self.params, knob):
                    raise ValueError(
                        f"query {knob} {getattr(params, knob)!r} differs "
                        f"from the substrate's {getattr(self.params, knob)!r}; "
                        "scheduling disciplines are machine-wide (set them "
                        "on the coordinator's params)"
                    )
        cls = service_class or DEFAULT_CLASS
        if self._classes.setdefault(cls.name, cls) != cls:
            # Pending order and per-class metrics are keyed by name;
            # head-only expiry needs one deadline rule each.
            raise ValueError(
                f"service class {cls.name!r} was already submitted as "
                f"{self._classes[cls.name]!r}; got {cls!r}"
            )
        if query_id is None:
            query_id = self._next_query_id
        if query_id in self._used_query_ids:
            raise ValueError(f"query id {query_id} already submitted")
        self._used_query_ids.add(query_id)
        self._next_query_id = max(self._next_query_id, query_id + 1)
        request = QueryRequest(
            query_id=query_id,
            plan=plan,
            # One shared name for every query, not a new string each.
            strategy=sys.intern((strategy or "DP").upper()),
            params=params or self.params,
            service_class=cls,
            arrival_time=self.env.now,
            seq=self._next_seq,
            done=self.env.event(f"query-done:{query_id}"),
        )
        self._next_seq += 1
        request.plan_index = plan_index
        request.planned_size = self.planning_count
        request.attempt = attempt
        request.final_attempt = final_attempt
        if attempt:
            self.metrics.retries += 1
        request.shed_at, request.shed_reason = self.admission.shed_deadline(
            request.arrival_time, cls
        )
        self.pending.push(request)
        if self.logger.enabled:
            self.logger.log(QuerySubmitted(
                time=self.env.now, query_id=request.query_id,
                plan_index=plan_index, plan_label=plan.label,
                strategy=request.strategy,
                service_class=request.service_class,
                params_seed=request.params.seed,
                attempt=attempt, final_attempt=final_attempt,
            ))
        self._poke()
        return request

    def close_arrivals(self) -> None:
        """No more submissions: the run ends when the queues drain."""
        self._arrivals_open = False
        self._poke()

    # -- elastic membership hooks --------------------------------------------

    @property
    def planning_count(self) -> int:
        """Nodes new admissions plan across (the full machine when static)."""
        if self.elastic is not None:
            return self.elastic.planning_count
        return self.config.nodes

    @property
    def workload_done(self) -> bool:
        """Arrivals closed with nothing pending or running (autoscaler exit)."""
        return (not self._arrivals_open and not self.pending
                and not self.running)

    def mpl_cap(self) -> int:
        """The effective multiprogramming limit for the current membership.

        On an elastic cluster the policy's MPL describes the *full*
        footprint; the live cap scales with the planned node share (a
        half-size cluster admits half the concurrency), never below 1.
        """
        mpl = self.admission.policy.max_multiprogramming
        if self.elastic is None:
            return mpl
        planning = self.elastic.planning_count
        total = self.config.nodes
        return max(1, -(-mpl * planning // total))  # ceil division

    def on_cluster_changed(self) -> None:
        """Membership changed: re-evaluate admission against the new set."""
        self._poke()

    # -- admission loop ------------------------------------------------------

    def _poke(self) -> None:
        if self._kick is not None and not self._kick.triggered:
            kick, self._kick = self._kick, None
            kick.succeed()

    def _admission_loop(self):
        """Admit queries while gates allow; shed what overload policy says.

        Admission order is FIFO *within* a service class and strict
        priority *across* classes: only each class's head-of-line query
        is considered (so intra-class order is preserved), highest
        priority first.  A single-class workload therefore degenerates to
        the original global FIFO with head-of-line blocking.
        """
        while True:
            self._shed_expired()
            while True:
                request = self._next_admissible()
                if request is None:
                    break
                self.pending.pop_head(request)
                if request.placement is not None:
                    # The decision of *this* evaluation is the one that
                    # runs: count it exactly once, at admission.
                    self.metrics.record_placement(request.placement)
                self.admission.admitted += 1
                if self.logger.enabled:
                    self.logger.log(QueryAdmitted(
                        time=self.env.now, query_id=request.query_id,
                        queued_for=self.env.now - request.arrival_time,
                    ))
                    if request.placement is not None:
                        decision = request.placement
                        self.logger.log(QueryPlaced(
                            time=self.env.now, query_id=request.query_id,
                            policy=decision.policy, nodes=decision.nodes,
                            bytes_avoided=decision.bytes_avoided,
                        ))
                self._start(request)
            if self.workload_done:
                return
            self._arm_shed_timer()
            self._kick = self.env.event("admission-kick")
            yield self._kick

    def _next_admissible(self) -> Optional[QueryRequest]:
        """The best admissible head-of-line request, or None.

        Also counts deferrals: each head that fails its gates is counted
        once per query, not once per re-evaluation.
        """
        order = sorted(
            self.pending.heads(),
            key=lambda r: (-r.service_class.priority, r.seq),
        )
        preempt_tried = False
        for request in order:
            self._resolve_plan(request)
            self._place(request)
            gate = self.admission.blocking_gate(
                request.plan, live_queries=len(self.running),
                mpl=self.mpl_cap())
            if gate is None:
                return request
            if (gate == "memory" and not preempt_tried
                    and self.admission.policy.memory_preemption):
                # Only the best memory-blocked head gets the machinery:
                # preemption is targeted at the query the class priority
                # order wants next, not at every starving head.
                preempt_tried = True
                if self.preemption.handle_memory_blocked(request):
                    self.pending.pop_head(request)
                    self._shed(request, "memory_preempted")
                    continue
            if not request.deferred:
                request.deferred = True
                self.admission.deferrals += 1
        return None

    def _resolve_plan(self, request: QueryRequest) -> None:
        """Re-compile a pending query against the current membership.

        Queries plan over the *planned* node set at admission time, not
        arrival time: a query that arrived on a 2-node cluster but is
        admitted after a scale-out to 3 runs the 3-node compilation of
        the same plan template.  Needs the driver's plan bank; direct
        submissions (no ``plan_index``) keep their submitted plan.
        """
        if self.elastic is None or self.plan_bank is None:
            return
        if request.plan_index is None:
            return
        size = self.elastic.planning_count
        if size != request.planned_size:
            request.plan = self.plan_bank[size][request.plan_index]
            request.base_plan = request.plan
            request.planned_size = size

    def _place(self, request: QueryRequest) -> None:
        """Apply the placement policy to a head-of-line candidate.

        Runs *after* the membership-aware plan re-resolution and
        *before* the admission gates, so the gates (and the eventual
        execution) see the placed plan — a policy that concentrates a
        query's joins concentrates its memory demand too.  Re-derived
        from ``base_plan`` on every head evaluation: the load picture
        may have changed while the query queued, and placement must
        never compound on its own previous output.
        """
        policy = self._placement_policy
        if policy is None:
            return
        view = ClusterView(
            planning_nodes=tuple(range(self.planning_count)),
            node_load=self.substrate.node_load,
            admitted=self.admission.admitted,
        )
        request.plan, request.placement = place_plan(
            request.base_plan, policy, self.placement, view,
        )

    # -- overload handling (shedding) ----------------------------------------

    def _shed_expired(self) -> None:
        """Shed every pending query whose deadline has passed."""
        for request in self.pending.pop_expired(self.env.now):
            self._shed(request, request.shed_reason)

    def _shed(self, request: QueryRequest, reason: str) -> None:
        request.shed = True
        if request.final_attempt and reason in ("queue_timeout", "deadline"):
            # The terminal attempt of a retrying client: the client gives
            # up, which is the fact worth counting — the mechanical queue
            # reason is the same one every earlier attempt already logged.
            reason = "retries_exhausted"
        record = ShedRecord(
            query_id=request.query_id,
            service_class=request.service_class.name,
            arrival_time=request.arrival_time,
            shed_time=self.env.now,
            reason=reason,
        )
        self.metrics.record_shed(record)
        if self.logger.enabled:
            self.logger.log(QueryShedEvent(
                time=self.env.now, query_id=request.query_id,
                service_class=request.service_class.name, reason=reason,
                attempt=request.attempt,
            ))
        if not request.done.triggered:
            # An explicit completion kind, not ``done(None)``: drivers
            # (and future retry/backoff clients) can tell a shed query
            # from a finished one by the event's value type.
            request.done.succeed(QueryShed(record))

    def _arm_shed_timer(self) -> None:
        """Wake the admission loop at the earliest pending shed deadline.

        Without this, a query could rot past its deadline until the next
        completion happens to poke the loop; with it, shedding is exact.
        """
        when = self.pending.earliest_deadline()
        if when is None:
            return
        if self._shed_timer_at is not None and self._shed_timer_at <= when:
            return
        self._shed_timer_at = when

        def timer(target=when):
            yield self.env.timeout(max(0.0, target - self.env.now))
            if self._shed_timer_at == target:
                self._shed_timer_at = None
            self._poke()

        self.env.process(timer(), name="shed-timer")

    # -- query start / completion -------------------------------------------

    def _start(self, request: QueryRequest) -> None:
        request.start_time = self.env.now
        if self.logger.enabled:
            self.logger.log(QueryStarted(
                time=self.env.now, query_id=request.query_id,
                strategy=request.strategy,
            ))
        self.running[request.query_id] = request
        self.peak_running = max(self.peak_running, len(self.running))
        config = self._config_for(request)
        executor = QueryExecutor(
            request.plan, config, strategy=request.strategy,
            params=request.params,
            template=lambda: self._template_for(request, config),
        )
        request.context = executor.launch(
            self.substrate, query_id=request.query_id,
            service_class=request.service_class,
        )
        request.context.finished.callbacks.append(
            lambda _event, req=request, ex=executor: self._record(
                req, ex.collect(req.context, req.queueing_delay))
        )

    def _config_for(self, request: QueryRequest) -> MachineConfig:
        """The machine ``request`` executes on: the planned prefix of the
        physical footprint (all of it unless the cluster is elastic)."""
        size = request.planned_size or self.config.nodes
        config = self._configs.get(size)
        if config is None:
            config = self._configs[size] = dataclasses.replace(
                self.config, nodes=size
            )
        return config

    def _template_for(self, request: QueryRequest,
                      config: MachineConfig) -> ExecutionTemplate:
        """The run's execution template for ``request``'s plan on ``config``.

        Keyed by the plan's index in the driver's bank (direct submissions
        share the ``None`` slot) and checked against the plan object and
        the params it was built from, so a placement-rewritten plan or a
        per-query params override gets a template of its own; each slot
        holds the latest, so the store stays O(plans x cluster sizes).
        """
        key = (request.plan_index, config.nodes)
        template = self._templates.get(key)
        if (template is None or template.plan is not request.plan
                or not template.fits(request.params)):
            template = self._templates[key] = ExecutionTemplate(
                request.plan, config, request.params
            )
        return template

    def _record(self, request: QueryRequest, result) -> None:
        """Account one finished execution (``result`` as just collected)."""
        completion = QueryCompletion(
            query_id=request.query_id,
            plan_label=request.plan.label,
            strategy=request.strategy,
            arrival_time=request.arrival_time,
            start_time=request.start_time,
            completion_time=self.env.now,
            result=result,
            service_class=request.service_class.name,
            latency_slo=request.service_class.latency_slo,
        )
        request.completion = completion
        self.metrics.record(completion)
        if self.logger.enabled:
            self.logger.log(QueryFinished(
                time=self.env.now, query_id=request.query_id,
                plan_label=completion.plan_label,
                service_class=completion.service_class,
                latency=completion.latency,
                queueing_delay=result.queueing_delay,
            ))
        del self.running[request.query_id]
        if not request.done.triggered:
            request.done.succeed(completion)
        self._poke()
        if self.elastic is not None:
            self.elastic.on_query_finished()

    # -- whole-run driver -----------------------------------------------------

    def close(self) -> None:
        """Free a drained run by refcount: release the machine and cut the
        callbacks that point back at this coordinator."""
        self.substrate.close()
        self.preemption = None
        if self.elastic is not None:
            self.elastic.close()
            self.elastic = None

    def run(self, until: Optional[float] = None) -> WorkloadMetrics:
        """Run the shared simulation until all work drains (or ``until``).

        Raises :class:`~repro.engine.context.ExecutionDeadlock` if the
        event heap drains with queries still pending or running — which
        would indicate an engine or admission bug, exactly like the
        single-query deadlock check.
        """
        self.env.run(until=until)
        leftover = len(self.pending) + len(self.running)
        if leftover and until is None:
            for request in self.running.values():
                request.context.assert_all_terminated()
            raise ExecutionDeadlock(
                f"workload wedged: {len(self.pending)} pending, "
                f"{len(self.running)} running"
            )
        self.metrics.unfinished = leftover
        self.metrics.broker_notifications = self.substrate.broker.notifications
        if self.elastic is not None:
            elastic = self.elastic
            rebalancer = elastic.rebalancer
            self.metrics.node_joins = elastic.joins
            self.metrics.node_leaves = elastic.leaves
            self.metrics.rebalances = rebalancer.rebalances
            self.metrics.rebalance_moves = rebalancer.total_moves
            self.metrics.rebalance_bytes = rebalancer.total_bytes
            self.metrics.rebalance_seconds = rebalancer.total_seconds
            self.metrics.peak_nodes = elastic.peak_nodes
            self.metrics.low_nodes = elastic.low_nodes
            self.metrics.load_gained_processors = (
                elastic.load_gained_processors
            )
        return self.metrics
