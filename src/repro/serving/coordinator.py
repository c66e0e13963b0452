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
steal protocol (see :meth:`ExecutionContext.node_load`).

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

SP queries are coordinated too (single-node substrates only): the SP
executor's driver process runs inside the shared environment and its
workers charge the shared processors, so SP streams contend with
activation-model queries — mixed-strategy workloads are legal.

**Cross-query machine-share stealing** (:class:`CrossQueryBroker`): the
paper's steal protocol only ever moves a query's *own* activations, and
only when that query's thread starves.  Under multiprogramming the
machine can be imbalanced even while every query's local threads still
trickle along — the idle CPU belongs to *someone else*.  The broker
closes that gap: every idle-thread signal is also a machine-wide "node n
has CPU to spare" fact, and when the machine-wide load imbalance is
large enough the broker triggers the Section 4 steal protocol of every
co-resident query *from* the starving node, moving their backlog onto
the idle share.  The stolen activations still travel inside their own
query's context, through the unmodified five-condition audit — only the
initiation is cross-query.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Optional

from ..engine.context import ExecutionContext, ExecutionDeadlock
from ..engine.executor import QueryExecutor
from ..engine.metrics import (QueryCompletion, QueryShed, ShedRecord,
                              WorkloadMetrics)
from ..engine.params import ExecutionParams
from ..engine.strategies.base import StrategyError
from ..engine.strategies.sp import SynchronousPipeliningExecutor
from ..optimizer.operator_tree import OpKind
from ..optimizer.plan import ParallelExecutionPlan
from ..placement import ClusterView, get_policy, place_plan
from ..sim.core import Event
from ..sim.machine import MachineConfig
from .admission import AdmissionController, AdmissionPolicy
from .classes import DEFAULT_CLASS, ServiceClass
from .substrate import SharedSubstrate
from .trace import (NOOP_LOGGER, BrokerImbalance, QueryAdmitted,
                    QueryFinished, QueryPlaced, QueryPreempted, QueryResumed,
                    QueryShedEvent, QueryStarted, QuerySubmitted, RunLogger)

__all__ = ["QueryRequest", "MultiQueryCoordinator", "CrossQueryBroker"]


class CrossQueryBroker:
    """Mediates machine-share stealing between co-resident queries.

    Receiver-initiated, in the taxonomy of the DLB surveys: the trigger
    is spare capacity (an idle thread of *any* query on node ``n``), the
    decision is machine-wide (the most loaded node must queue more than
    ``cross_steal_imbalance`` times node ``n``'s load, and at least
    ``min_steal_activations`` so a round can amortize), and the action is
    delegated to each co-resident query's own
    :meth:`~repro.engine.scheduler.NodeScheduler.on_machine_starving` —
    i.e. the paper's protocol with its cooldowns, blocked-scope latches
    and five provider-side conditions fully intact.
    """

    def __init__(self, substrate: "SharedSubstrate"):
        self.substrate = substrate
        self.enabled = substrate.params.cross_query_steal
        #: memoized machine-wide load snapshot, valid for one virtual
        #: instant — idle signals cluster at the same timestamp (every
        #: thread that drains parks in the same event cascade), and one
        #: O(nodes x queries) queue walk per instant is plenty for a
        #: heuristic trigger.
        self._loads_at: float = -1.0
        self._loads: list[int] = []
        # --- statistics -------------------------------------------------
        #: idle signals that found an actionable machine imbalance.
        self.notifications = 0

    def _load_snapshot(self) -> list[int]:
        substrate = self.substrate
        now = substrate.env.now
        if now != self._loads_at:
            self._loads_at = now
            self._loads = [substrate.node_load(n)
                           for n in range(substrate.config.nodes)]
        return self._loads

    def on_node_starving(self, node_id: int, context) -> None:
        """An idle thread of ``context`` signalled spare CPU on ``node_id``."""
        if not self.enabled:
            return
        substrate = self.substrate
        membership = substrate.membership
        if membership is not None and (
                not membership.is_member(node_id)
                or membership.is_draining(node_id)):
            # Never attract work onto a node that is leaving (or gone):
            # its spare CPU is spare precisely because it is draining.
            return
        others = [c for c in substrate.contexts
                  if c is not context and not c.done]
        if not others:
            return
        params = substrate.params
        loads = self._load_snapshot()
        local = loads[node_id]
        peak = max(loads)
        if peak < params.min_steal_activations:
            return
        if peak <= local * params.cross_steal_imbalance:
            return
        self.notifications += 1
        logger = substrate.logger
        if logger.enabled:
            logger.log(BrokerImbalance(
                time=substrate.env.now, node_id=node_id,
                local_load=local, peak_load=peak,
            ))
        targets = []
        for other in others:
            if node_id >= len(other.nodes):
                continue  # elastic: the query planned on a smaller prefix
            scheduler = other.nodes[node_id].scheduler
            if scheduler is not None:
                targets.append((other, scheduler))
        if params.cross_steal_policy == "best" and len(targets) > 1:
            targets = [min(targets, key=self._benefit_key)]
        for _other, scheduler in targets:
            scheduler.on_machine_starving()

    @staticmethod
    def _benefit_key(target) -> tuple:
        """Benefit/overhead rank of one steal candidate (lower = better).

        Benefit is the backlog a steal round could actually relieve: the
        candidate's own queued activations on its most loaded node.
        Overhead is what a steal would ship — the hash-table bytes the
        candidate holds (stolen build scopes travel with their table
        pages).  ``"best"`` picks the argmax of benefit/overhead, with the
        query id as a deterministic tiebreak, so the broker's intervention
        moves the one query whose relief is cheapest per byte instead of
        stampeding every co-resident query at once.
        """
        other, _scheduler = target
        backlog = max(
            node.total_queued_activations() for node in other.nodes
        )
        shipped = sum(node.store.bytes_held for node in other.nodes)
        return (-(backlog / (1.0 + shipped)), other.query_id)


class QueryRequest:
    """One submitted query: identity, timestamps, completion event."""

    __slots__ = ("query_id", "plan", "base_plan", "strategy", "params",
                 "service_class",
                 "arrival_time", "seq", "start_time", "done", "completion",
                 "context", "_sp", "deferred", "shed", "shed_at",
                 "shed_reason", "plan_index", "planned_size", "attempt",
                 "final_attempt", "preempting", "placement")

    def __init__(self, query_id: int, plan: ParallelExecutionPlan,
                 strategy: str, params: ExecutionParams,
                 service_class: ServiceClass,
                 arrival_time: float, seq: int, done: Event):
        self.query_id = query_id
        self.plan = plan
        #: the un-placed plan (as submitted, or the bank's re-resolution)
        #: the placement policy re-derives ``plan`` from on every head
        #: evaluation — placement never compounds on its own output.
        self.base_plan = plan
        self.strategy = strategy
        self.params = params
        #: scheduling/admission contract (weight, priority, SLO, gates).
        self.service_class = service_class
        self.arrival_time = arrival_time
        #: submission order, the FIFO tiebreak within a service class.
        self.seq = seq
        self.start_time: Optional[float] = None
        #: fires when the query finishes (with its QueryCompletion) or is
        #: shed (with a QueryShed) — closed-loop clients wait on it.
        self.done = done
        self.completion: Optional[QueryCompletion] = None
        self.context: Optional[ExecutionContext] = None
        self._sp: Optional[SynchronousPipeliningExecutor] = None
        #: set once the query has waited on a closed admission gate
        #: (deferral is counted per query, not per re-evaluation).
        self.deferred = False
        #: set when overload handling rejected the query before starting.
        self.shed = False
        #: precomputed shed deadline and reason (both pure functions of
        #: arrival time, class and policy) — computed once at submission
        #: so the admission loop's overload scan compares floats instead
        #: of re-deriving deadlines per wake (O(pending) per event adds
        #: up on deep queues; see the trace-replay bench).
        self.shed_at: Optional[float] = None
        self.shed_reason = "queue_timeout"
        #: index into the driver's plan population (None: direct submit).
        #: On an elastic cluster this is what lets admission re-resolve
        #: the plan against the membership at *start* time.
        self.plan_index: Optional[int] = None
        #: node count the current ``plan`` was compiled for.
        self.planned_size: int = 0
        #: which submission of the logical query this is (0 = the
        #: original arrival; k = the k-th retry of a backoff client).
        self.attempt: int = 0
        #: True when a retry client has no attempts left after this one —
        #: a shed then records ``retries_exhausted`` instead of the
        #: mechanical queue reason, making terminal give-ups countable.
        self.final_attempt: bool = False
        #: a memory preemption (victim spill) is in flight on this
        #: query's behalf; the admission loop must not trigger another
        #: until it lands and the freed bytes are observable.
        self.preempting: bool = False
        #: the placement decision behind the current ``plan`` (None when
        #: no policy is active); finalized at admission.
        self.placement = None


class _Preemption:
    """One in-flight victim suspension: spill state and resume latch."""

    __slots__ = ("request", "victim", "joins", "nbytes", "spilled",
                 "spill_done", "resume_requested")

    def __init__(self, request: QueryRequest, victim: QueryRequest,
                 joins, nbytes: int):
        #: the admission candidate the spill frees memory for.
        self.request = request
        #: the batch query whose hash build is being suspended.
        self.victim = victim
        #: ``[(suspended runtime, join id, {shortfall node: spillable
        #: bytes})]`` — the runtime is the join's build while building,
        #: its probe once the build finished (see ``_spillable_joins``);
        #: only the listed nodes are spilled and reloaded.
        self.joins = joins
        self.nbytes = nbytes
        #: bytes actually released once the spill lands.
        self.spilled = 0
        self.spill_done = False
        #: the preemptor resolved (finished or shed) before the spill
        #: landed; the spill process chains straight into the resume.
        self.resume_requested = False


class MultiQueryCoordinator:
    """Runs many query executions inside one shared environment."""

    def __init__(self, config: MachineConfig,
                 params: Optional[ExecutionParams] = None,
                 policy: AdmissionPolicy = AdmissionPolicy(),
                 logger: Optional[RunLogger] = None,
                 metrics: Optional[WorkloadMetrics] = None,
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
        self.pending: deque[QueryRequest] = deque()
        #: live pending count per service-class name.  Head-of-line scans
        #: (:meth:`_class_heads`) stop once every distinct class has been
        #: seen — O(classes) instead of O(pending) per admission wake,
        #: which is what keeps million-query replays with deep overload
        #: queues near-linear (see ``benchmarks/bench_trace_replay.py``).
        self._pending_classes: dict[str, int] = {}
        self.running: dict[int, QueryRequest] = {}
        #: live executing queries per service class (the per-class MPL gate).
        self.running_by_class: dict[str, int] = {}
        #: highest per-class concurrency observed, per class name.
        self.peak_running_by_class: dict[str, int] = {}
        #: highest number of simultaneously executing queries observed —
        #: the admission tests assert it never exceeds the policy cap.
        self.peak_running = 0
        #: injectable sink: pass ``WorkloadMetrics(retain_completions=False)``
        #: for replays too large to retain per-query results in memory.
        self.metrics = metrics if metrics is not None else WorkloadMetrics()
        self._arrivals_open = True
        self._kick: Optional[Event] = None
        self._next_query_id = 0
        self._next_seq = 0
        self._used_query_ids: set[int] = set()
        #: virtual instant the armed shed timer targets (None: no timer).
        self._shed_timer_at: Optional[float] = None
        # Mid-execution memory releases (probe ends freeing hash tables)
        # re-evaluate admission without waiting for a whole completion.
        self.substrate.on_memory_release = self._poke
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
        if query_id is None:
            query_id = self._next_query_id
        if query_id in self._used_query_ids:
            raise ValueError(f"query id {query_id} already submitted")
        self._used_query_ids.add(query_id)
        self._next_query_id = max(self._next_query_id, query_id + 1)
        request = QueryRequest(
            query_id=query_id,
            plan=plan,
            strategy=(strategy or "DP").upper(),
            params=params or self.params,
            service_class=service_class or DEFAULT_CLASS,
            arrival_time=self.env.now,
            seq=self._next_seq,
            done=self.env.event(f"query-done:{query_id}"),
        )
        self._next_seq += 1
        request.plan_index = plan_index
        request.planned_size = self.planning_count
        request.attempt = attempt
        request.final_attempt = final_attempt
        cls = request.service_class
        request.shed_at = self.admission.shed_deadline(
            request.arrival_time, cls
        )
        if (request.shed_at is not None
                and self.admission.policy.deadline_shedding
                and cls.latency_slo is not None
                and request.shed_at
                == request.arrival_time + cls.latency_slo):
            request.shed_reason = "deadline"
        self.pending.append(request)
        name = cls.name
        self._pending_classes[name] = self._pending_classes.get(name, 0) + 1
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
                self.pending.remove(request)
                self._drop_pending_class(request)
                if request.placement is not None:
                    # The decision of *this* evaluation is the one that
                    # runs: count it exactly once, at admission.
                    self.metrics.record_placement(request.placement)
                self.admission.on_admitted(request.service_class)
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
            if (not self._arrivals_open and not self.pending
                    and not self.running):
                return
            self._arm_shed_timer()
            self._kick = self.env.event("admission-kick")
            yield self._kick

    def _next_admissible(self) -> Optional[QueryRequest]:
        """The best admissible head-of-line request, or None.

        Also counts deferrals: each head that fails its gates is counted
        once per query, not once per re-evaluation.
        """
        heads = self._class_heads()
        order = sorted(
            heads.values(),
            key=lambda r: (-r.service_class.priority, r.seq),
        )
        preempt_tried = False
        for request in order:
            cls = request.service_class
            self._resolve_plan(request)
            self._place(request)
            gate = self.admission.blocking_gate(
                request.plan, live_queries=len(self.running),
                service_class=cls,
                class_running=self.running_by_class.get(cls.name, 0),
                mpl=self.mpl_cap())
            if gate is None:
                return request
            if (gate == "memory" and not preempt_tried
                    and self.admission.policy.memory_preemption):
                # Only the best memory-blocked head gets the machinery:
                # preemption is targeted at the query the class priority
                # order wants next, not at every starving head.
                preempt_tried = True
                if self._handle_memory_blocked(request):
                    continue  # shed with "memory_preempted"
            if not request.deferred:
                request.deferred = True
                self.admission.on_deferred(cls)
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
            params=self.params,
            config=self.config,
        )
        request.plan, request.placement = place_plan(
            request.base_plan, policy, self.placement, view,
            request.query_id,
        )

    def _class_heads(self) -> dict[str, QueryRequest]:
        """Head-of-line pending request per service-class name.

        Walks the FIFO queue front-to-back but stops as soon as every
        distinct pending class has surfaced its head (the per-class
        counts are maintained at submit/admit/shed time) — with one
        class, that is the first element, not the whole queue.
        """
        heads: dict[str, QueryRequest] = {}
        want = len(self._pending_classes)
        for request in self.pending:
            name = request.service_class.name
            if name not in heads:
                heads[name] = request
                if len(heads) == want:
                    break
        return heads

    def _drop_pending_class(self, request: QueryRequest) -> None:
        """Account for ``request`` leaving ``pending`` (admitted or shed)."""
        name = request.service_class.name
        count = self._pending_classes[name] - 1
        if count:
            self._pending_classes[name] = count
        else:
            del self._pending_classes[name]

    # -- preemptive memory management ----------------------------------------

    def _handle_memory_blocked(self, request: QueryRequest) -> bool:
        """A head query is blocked on the memory gate alone: intervene.

        Tries to suspend the best lower-priority victim's hash build
        (spilling its reserved bytes back to the node pools).  Returns
        True when the request was *shed* instead — no eligible victim and
        the policy says a memory-starved query should fail fast rather
        than rot in the queue.
        """
        if request.preempting:
            return False  # a spill is already in flight for this query
        policy = self.admission.policy
        if request.shed_at is None and not policy.preemption_shed:
            # A victim's resume is keyed to this request's resolution
            # (admission-then-completion, or a shed).  Without a shed
            # deadline or the shed fallback an insufficient spill could
            # freeze the victim forever — refuse to preempt and let the
            # request wait like any deferred query.
            return False
        if self._start_preemption(request):
            return False
        if policy.preemption_shed:
            self.pending.remove(request)
            self._drop_pending_class(request)
            self._shed(request, "memory_preempted")
            return True
        return False

    def _start_preemption(self, request: QueryRequest) -> bool:
        """Pick and suspend the best victim for ``request``; True if begun."""
        shortfall = self.admission.memory_shortfall(
            request.plan, request.service_class
        )
        if not shortfall:
            return False  # raced with a release: the gate will pass now
        selected = self._select_victim(request, shortfall)
        if selected is None:
            return False
        victim, joins = selected
        joins = self._greedy_cover(joins, shortfall)
        # Mark synchronously, inside this event cascade: a suspended
        # operator cannot be selected, stolen from, or end.  For a live
        # build that freezes the writer (its probe is still blocked
        # upstream); for a finished build the *probe* is what gets
        # suspended — it is the table's only reader, so nothing touches
        # the spilled bytes while the timed spill is in flight.
        for runtime, _join_id, _per_node in joins:
            runtime.suspended = True
        request.preempting = True
        pre = _Preemption(
            request=request, victim=victim, joins=joins,
            nbytes=sum(sum(per_node.values())
                       for _runtime, _join_id, per_node in joins),
        )
        request.done.callbacks.append(
            lambda _event, p=pre: self._on_preemptor_done(p)
        )
        self.env.process(
            self._spill_proc(pre), name=f"spill:q{victim.query_id}"
        )
        return True

    def _select_victim(self, request: QueryRequest, shortfall):
        """Best suspension victim: most spillable bytes where they matter.

        Eligible victims run at strictly lower class priority than the
        blocked request and have at least one live (not terminated, not
        ending, not already suspended) hash build holding reserved bytes
        on a shortfall node.  Rank by those bytes, query id as the
        deterministic tiebreak.  Returns ``(victim, joins)`` or None.
        """
        best = None
        best_key = None
        for victim in self.running.values():
            context = victim.context
            if context is None or context.done:
                continue  # SP executions have no spillable hash state
            if (victim.service_class.priority
                    >= request.service_class.priority):
                continue
            joins = self._spillable_joins(context, shortfall)
            if not joins:
                continue
            total = sum(sum(per_node.values())
                        for _runtime, _join_id, per_node in joins)
            key = (-total, victim.query_id)
            if best_key is None or key < best_key:
                best, best_key = (victim, joins), key
        return best

    @staticmethod
    def _greedy_cover(joins, shortfall):
        """Smallest useful prefix of the biggest-first join list.

        Spilling (and later reloading) a join the shortfall does not
        need is pure overhead — every spilled byte is priced through the
        network/disk models twice.  Take joins in descending spillable
        size (join id as the deterministic tiebreak) and stop as soon as
        every shortfall node is covered; if even the full set cannot
        cover, spill it all (partial relief still unblocks the gate
        sooner than waiting for the victim's own releases).
        """
        ordered = sorted(
            joins,
            key=lambda j: (-sum(j[2].values()), j[1]),
        )
        chosen = []
        covered = dict.fromkeys(shortfall, 0)
        for target, join_id, per_node in ordered:
            chosen.append((target, join_id, per_node))
            for node_id, nbytes in per_node.items():
                covered[node_id] += nbytes
            if all(covered[node_id] >= need
                   for node_id, need in shortfall.items()):
                break
        return chosen

    @staticmethod
    def _spillable_joins(context: ExecutionContext, shortfall):
        """``[(runtime to suspend, join id, {shortfall node: bytes})]``.

        A join's hash table is preemptible in two phases, with a
        different operator frozen in each:

        * **building** — the build runtime is live: suspend *it* (the
          probe is already blocked behind the unfinished build, so the
          table has no reader);
        * **probing** — the build terminated but its table persists until
          probe end: suspend the *probe*, the table's only reader.

        A join whose probe also finished has released its table (nothing
        to spill), and an already-suspended operator is skipped — one
        preemption per join at a time.
        """
        live = {}
        for runtime in context.ops.values():
            if runtime.terminated or runtime.ending or runtime.suspended:
                continue
            live[(runtime.op.kind, runtime.op.join_id)] = runtime
        joins = []
        for runtime in context.ops.values():
            op = runtime.op
            if op.kind is not OpKind.BUILD:
                continue
            target = live.get((OpKind.BUILD, op.join_id))
            if target is None:
                target = live.get((OpKind.PROBE, op.join_id))
            if target is None:
                continue
            per_node = {}
            for node_id in shortfall:
                if node_id >= len(context.nodes):
                    continue
                nbytes = context.nodes[node_id].store.spillable_bytes(
                    op.join_id
                )
                if nbytes > 0:
                    per_node[node_id] = nbytes
            if per_node:
                joins.append((target, op.join_id, per_node))
        return joins

    def _spill_seconds(self, context: ExecutionContext, nbytes: int) -> float:
        """Price of shipping ``nbytes`` of hash table out of memory.

        The same shape as a steal page transfer — serialize the pages
        (network send instructions at the victim's CPU speed), then
        stream them at the disk transfer rate (the spill target).
        """
        params = context.params
        serialize = context.instructions_time(
            params.network.send_instructions(max(1, nbytes))
        )
        return serialize + nbytes / params.disk.transfer_rate

    def _reload_seconds(self, context: ExecutionContext, nbytes: int) -> float:
        """Price of reading spilled bytes back in (the resume path)."""
        params = context.params
        deserialize = context.instructions_time(
            params.network.receive_instructions(max(1, nbytes))
        )
        return deserialize + nbytes / params.disk.transfer_rate

    def _spill_proc(self, pre: _Preemption):
        victim = pre.victim
        context = victim.context
        yield self.env.timeout(self._spill_seconds(context, pre.nbytes))
        released = 0
        for _runtime, join_id, per_node in pre.joins:
            for node_id in per_node:
                released += context.nodes[node_id].store.spill_join(join_id)
        pre.spilled = released
        pre.spill_done = True
        context.metrics.memory_preemptions += 1
        context.metrics.spill_bytes += released
        self.metrics.memory_preemptions += 1
        self.metrics.spill_bytes += released
        if self.logger.enabled:
            self.logger.log(QueryPreempted(
                time=self.env.now, query_id=victim.query_id,
                for_query_id=pre.request.query_id, spilled_bytes=released,
            ))
        pre.request.preempting = False
        # The freed bytes are now observable: re-evaluate admission.
        self.substrate.notify_memory_released()
        self._poke()
        if pre.resume_requested:
            self.env.process(
                self._resume_proc(pre), name=f"resume:q{victim.query_id}"
            )

    def _on_preemptor_done(self, pre: _Preemption) -> None:
        """The preemptor resolved (finished or shed): give the memory back."""
        pre.resume_requested = True
        if pre.spill_done:
            self.env.process(
                self._resume_proc(pre),
                name=f"resume:q{pre.victim.query_id}",
            )

    def _resume_proc(self, pre: _Preemption):
        victim = pre.victim
        context = victim.context
        if context.done:
            return  # defensive: a suspended build cannot normally finish
        yield self.env.timeout(self._reload_seconds(context, pre.spilled))
        reloaded = 0
        for _runtime, join_id, per_node in pre.joins:
            for node_id in per_node:
                reloaded += context.nodes[node_id].store.unspill_join(join_id)
        for runtime, _join_id, _per_node in pre.joins:
            runtime.suspended = False
        if self.logger.enabled:
            self.logger.log(QueryResumed(
                time=self.env.now, query_id=victim.query_id,
                reloaded_bytes=reloaded,
            ))
        # The end condition may have ripened while the operator was
        # frozen (its producers finishing), and its threads may all be
        # parked.
        for runtime, _join_id, _per_node in pre.joins:
            context.maybe_end(runtime)
        for node in context.nodes:
            node.wake_all()

    # -- overload handling (shedding) ----------------------------------------

    def _shed_expired(self) -> None:
        """Drop pending queries whose shed deadline has passed.

        Deadlines and reasons are precomputed at submission
        (:attr:`QueryRequest.shed_at`) and, within one class, follow
        arrival order — so "anything expired?" is answered by the class
        heads alone, and the O(pending) sweep only runs when a query
        actually expires.
        """
        if not self.pending:
            return
        now = self.env.now
        cutoff = now + 1e-12
        if not any(r.shed_at is not None and r.shed_at <= cutoff
                   for r in self._class_heads().values()):
            return
        kept: deque[QueryRequest] = deque()
        for request in self.pending:
            deadline = request.shed_at
            if deadline is not None and now >= deadline - 1e-12:
                self._shed(request, request.shed_reason)
                self._drop_pending_class(request)
            else:
                kept.append(request)
        self.pending = kept

    def _shed(self, request: QueryRequest, reason: str) -> None:
        request.shed = True
        if request.final_attempt and reason in ("queue_timeout", "deadline"):
            # The terminal attempt of a retrying client: the client gives
            # up, which is the fact worth counting — the mechanical queue
            # reason is the same one every earlier attempt already logged.
            reason = "retries_exhausted"
        self.admission.on_shed(request.service_class)
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
        # Within a class, deadlines follow arrival order: the earliest
        # pending deadline is always at one of the class heads.
        deadlines = [r.shed_at for r in self._class_heads().values()
                     if r.shed_at is not None]
        if not deadlines:
            return
        when = min(deadlines)
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
        name = request.service_class.name
        live = self.running_by_class.get(name, 0) + 1
        self.running_by_class[name] = live
        self.peak_running_by_class[name] = max(
            self.peak_running_by_class.get(name, 0), live
        )
        if request.strategy == "SP":
            sp = SynchronousPipeliningExecutor(
                request.plan, self.config, request.params
            )
            request._sp = sp
            driver = sp.launch(
                self.env, self.substrate.disks[0], self.substrate.processors[0],
                query_id=request.query_id,
                service_class=request.service_class,
            )
            driver.callbacks.append(
                lambda _event, req=request: self._finish_sp(req)
            )
        else:
            config = self.config
            if (self.elastic is not None
                    and request.planned_size
                    and request.planned_size != config.nodes):
                # The execution spans the planned prefix of the physical
                # footprint, not the whole machine.
                config = dataclasses.replace(
                    config, nodes=request.planned_size
                )
            executor = QueryExecutor(
                request.plan, config, strategy=request.strategy,
                params=request.params,
            )
            context = executor.launch(
                substrate=self.substrate, query_id=request.query_id,
                service_class=request.service_class,
            )
            request.context = context
            context.finished.callbacks.append(
                lambda _event, req=request, ex=executor:
                    self._finish_engine(req, ex)
            )

    def _finish_engine(self, request: QueryRequest,
                       executor: QueryExecutor) -> None:
        context = request.context
        queueing = request.start_time - request.arrival_time
        context.metrics.queueing_delay = queueing
        result = dataclasses.replace(
            executor.collect(context), queueing_delay=queueing
        )
        self._record(request, result)

    def _finish_sp(self, request: QueryRequest) -> None:
        queueing = request.start_time - request.arrival_time
        sp = request._sp
        sp.metrics.queueing_delay = queueing
        result = dataclasses.replace(
            sp.collect(start_time=request.start_time, end_time=self.env.now),
            queueing_delay=queueing,
        )
        self._record(request, result)

    def _record(self, request: QueryRequest, result) -> None:
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
                queueing_delay=request.start_time - request.arrival_time,
            ))
        del self.running[request.query_id]
        name = request.service_class.name
        self.running_by_class[name] = self.running_by_class.get(name, 1) - 1
        if not request.done.triggered:
            request.done.succeed(completion)
        self._poke()
        if self.elastic is not None:
            self.elastic.on_query_finished()

    # -- whole-run driver -----------------------------------------------------

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
                if request.context is not None:
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
