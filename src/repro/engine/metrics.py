"""Execution metrics: everything the paper's evaluation section reads back.

Response time is the headline number; the secondary observables back the
paper's analyses:

* per-thread busy/idle time ("processor idle time with DP is almost null
  whereas it is quite significant with FP", Section 5.3);
* network traffic by purpose — ``pipeline`` (data redistribution),
  ``loadbalance`` (stolen activations + hash tables), ``control``
  (starving/offer/end-detection/credit messages) — backing the Section
  5.3 transfer-volume comparison (FP ≈ 9 MB vs DP ≈ 2.5 MB);
* steal-round accounting;
* tuple conservation counters used heavily by the integration tests.

The serving layer (:mod:`repro.serving`) adds workload-level observables
on top: :class:`QueryCompletion` splits each query's lifetime into
queueing delay (arrival → admission) and execution time (admission →
completion), and :class:`WorkloadMetrics` aggregates a whole multi-query
run — throughput, latency percentiles, queueing delay, per-query steal
traffic.  Both are plain deterministic data: two runs with the same seed
produce byte-identical :meth:`WorkloadMetrics.summary` output, which the
determinism regression tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "ThreadTime",
    "ExecutionMetrics",
    "ExecutionResult",
    "QueryCompletion",
    "QueryShed",
    "ShedRecord",
    "WorkloadMetrics",
    "percentile",
]


class ThreadTime:
    """One execution thread's lifetime, split at its three suspension
    points: a CPU charge (``cpu``, its service seconds, added at issue;
    ``cpu_contention``, its wait behind other queries' charges), a wait
    on in-flight reads (``io_wait``) and a park with nothing selectable
    (``no_work``).  Nothing else advances a thread's clock, so once it
    has exited the slots sum to its exit instant minus its start
    (``tests/test_thread_time.py``)."""

    __slots__ = ("cpu", "cpu_contention", "io_wait", "no_work")

    def __init__(self) -> None:
        self.cpu = 0.0
        self.cpu_contention = 0.0
        self.io_wait = 0.0
        self.no_work = 0.0


@dataclass(slots=True)
class ExecutionMetrics:
    """Mutable counters filled in during one query execution."""

    # --- time ----------------------------------------------------------------
    #: execution time: admission -> completion (equals the classic
    #: response time when the query owns the machine from t=0).
    response_time: float = 0.0
    #: arrival -> admission wait under the serving layer's admission
    #: control; 0 for a directly-executed query.
    queueing_delay: float = 0.0
    #: the threads' ``cpu``, ``io_wait`` and ``no_work`` slots, each
    #: summed over the threads (see :class:`ThreadTime`).
    thread_busy_time: float = 0.0
    thread_io_wait_time: float = 0.0
    thread_no_work_time: float = 0.0
    #: time threads spent queued for a processor behind concurrent
    #: queries' charges (0 in single-query mode: one thread/processor),
    #: summed live as charges end, up to the query's completion.
    cpu_contention_time: float = 0.0
    #: time this query's read requests spent queued behind other requests
    #: at the disk arms (self- or cross-query; per-ChargeTag attribution).
    disk_wait_time: float = 0.0
    #: time this query's messages spent queued for the network link
    #: (always 0 with the paper's infinite-bandwidth interconnect).
    net_wait_time: float = 0.0
    thread_count: int = 0

    # --- activations ------------------------------------------------------------
    trigger_activations: int = 0
    data_activations: int = 0
    activations_processed: int = 0
    suspensions: int = 0
    foreign_queue_consumptions: int = 0

    # --- tuples -------------------------------------------------------------------
    tuples_scanned: int = 0
    tuples_built: int = 0
    tuples_probed: int = 0
    result_tuples: int = 0

    # --- network (mirrors of the Network counters) ---------------------------------
    messages_sent: int = 0
    bytes_sent: int = 0
    pipeline_bytes: int = 0
    loadbalance_bytes: int = 0
    control_bytes: int = 0
    loadbalance_messages: int = 0

    # --- global load balancing -------------------------------------------------------
    steal_rounds: int = 0
    steals_succeeded: int = 0
    activations_stolen: int = 0
    hash_bytes_shipped: int = 0
    cache_hits: int = 0
    #: steal rounds initiated by the cross-query broker on this query's
    #: behalf (a co-resident query's node starved, and this query's
    #: backlog was invited to move there); included in ``steal_rounds``.
    cross_steal_rounds: int = 0

    # --- memory -------------------------------------------------------------------------
    memory_high_watermark: int = 0
    #: build bytes accounted without a reservation because the node pool
    #: was exhausted mid-build (shared-substrate overcommit tolerance;
    #: always 0 in single-query mode, which raises instead).
    memory_overcommit_bytes: int = 0
    #: times this query's hash builds were suspended by the serving
    #: layer's preemptive memory management (always 0 in single-query
    #: mode: there is nobody to preempt for).
    memory_preemptions: int = 0
    #: hash-table bytes spilled (and later reloaded) by those
    #: preemptions, priced like steal page transfers.
    spill_bytes: int = 0

    def fold_threads(self, threads) -> None:
        """Set the thread fields from ``threads``' :class:`ThreadTime`
        slots, folded left to right (float ``sum()`` rounds differently
        from 3.12 on).  ``cpu_contention_time`` is not among them: it
        keeps its live sum."""
        count = 0
        busy = io_wait = no_work = 0.0
        for thread in threads:
            count += 1
            busy += thread.cpu
            io_wait += thread.io_wait
            no_work += thread.no_work
        self.thread_count = count
        self.thread_busy_time = busy
        self.thread_io_wait_time = io_wait
        self.thread_no_work_time = no_work

    def idle_fraction(self) -> float:
        """Fraction of processor-time the threads spent not computing.

        It lumps together CPU contention, I/O waits and parking with no
        work — the three non-``cpu`` slots of :class:`ThreadTime`, of
        which only the last is the paper's "idle" — less what charges
        still in flight at completion run past it.
        """
        if self.response_time <= 0 or self.thread_count == 0:
            return 0.0
        total = self.response_time * self.thread_count
        return max(0.0, 1.0 - self.thread_busy_time / total)


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """One query execution's outcome.

    ``response_time`` is the *execution* time (admission to completion);
    ``queueing_delay`` is the pre-admission wait (0 when the query was
    executed directly, the paper's single-query mode).  The end-to-end
    latency a client observes is their sum.
    """

    plan_label: str
    strategy: str
    config_label: str
    response_time: float
    metrics: ExecutionMetrics
    queueing_delay: float = 0.0

    @property
    def execution_time(self) -> float:
        """Alias for ``response_time`` (admission -> completion)."""
        return self.response_time

    @property
    def latency(self) -> float:
        """End-to-end client latency: queueing delay + execution time."""
        return self.queueing_delay + self.response_time

    def __str__(self) -> str:
        return (
            f"{self.plan_label} [{self.strategy} on {self.config_label}]: "
            f"{self.response_time:.3f}s, idle {self.metrics.idle_fraction():.1%}, "
            f"{self.metrics.result_tuples} results"
        )


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``p`` in [0, 100].  Empty input returns 0.0 so summary tables render
    without special-casing.
    """
    if not values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True, slots=True)
class QueryCompletion:
    """One query's lifetime inside a multi-query workload run.

    The three timestamps split the client-observed latency exactly:
    ``arrival_time`` (the driver generated the query), ``start_time``
    (admission control released it onto the machine), ``completion_time``
    (its root operator terminated).
    """

    query_id: int
    plan_label: str
    strategy: str
    arrival_time: float
    start_time: float
    completion_time: float
    result: ExecutionResult
    #: service class the query ran under ("default" outside the
    #: class-aware serving paths).
    service_class: str = "default"
    #: the class's end-to-end latency SLO, if it declared one.
    latency_slo: Optional[float] = None

    @property
    def slo_met(self) -> Optional[bool]:
        """Whether the end-to-end latency met the class SLO (None: no SLO)."""
        if self.latency_slo is None:
            return None
        return self.latency <= self.latency_slo

    @property
    def queueing_delay(self) -> float:
        """Arrival -> admission wait imposed by admission control."""
        return self.start_time - self.arrival_time

    @property
    def execution_time(self) -> float:
        """Admission -> completion (the paper's response time)."""
        return self.completion_time - self.start_time

    @property
    def latency(self) -> float:
        """Arrival -> completion: what the submitting client observes."""
        return self.completion_time - self.arrival_time

    @property
    def steal_bytes(self) -> int:
        """Load-balancing bytes shipped on behalf of this query."""
        return self.result.metrics.loadbalance_bytes


@dataclass(frozen=True, slots=True)
class ShedRecord:
    """One query rejected by overload handling before it ever started.

    ``reason`` is one of:

    * ``"queue_timeout"`` — waited longer than its class's admission
      queue timeout;
    * ``"deadline"`` — its latency SLO expired while it was still
      queued, so completing it could no longer help;
    * ``"retries_exhausted"`` — the *final* attempt of a retrying
      client was shed: the client gives up instead of backing off again
      (see :class:`~repro.serving.spec.RetryPolicySpec`);
    * ``"memory_preempted"`` — its memory reservation could not be met
      even after preemptive spilling of victim queries, so admission
      dropped it rather than let it wait out its deadline.
    """

    query_id: int
    service_class: str
    arrival_time: float
    shed_time: float
    reason: str

    @property
    def queued_for(self) -> float:
        """How long the query waited before being shed."""
        return self.shed_time - self.arrival_time


@dataclass(frozen=True)
class QueryShed:
    """Explicit completion kind of a shed query.

    A :class:`~repro.serving.pending.QueryRequest`'s ``done`` event
    fires with a :class:`~repro.engine.metrics.QueryCompletion` when the
    query finished — and with a :class:`QueryShed` when overload handling
    rejected it, so closed-loop clients (and future retry/backoff client
    models) can distinguish "served" from "dropped" without guessing from
    ``None``.
    """

    record: ShedRecord

    @property
    def query_id(self) -> int:
        return self.record.query_id

    @property
    def service_class(self) -> str:
        return self.record.service_class

    @property
    def reason(self) -> str:
        """The shed reason taxonomy (see :class:`ShedRecord`)."""
        return self.record.reason


@dataclass(slots=True)
class _Fold:
    """Accumulators over a completion stream (the whole run, or one class).

    :meth:`add`, the only writer, adds with plain ``+=`` in record order:
    a left fold, so the same bits on every interpreter (builtin ``sum()``
    is Neumaier-compensated from Python 3.12 on, so it is not).
    """

    count: int = 0
    latencies: list[float] = field(default_factory=list)
    queueing_sum: float = 0.0
    queueing_max: float = 0.0
    execution_sum: float = 0.0
    #: completions that did not miss a declared SLO.
    slo_met: int = 0
    steal_bytes: int = 0
    cross_steal_rounds: int = 0
    cpu_wait: float = 0.0
    disk_wait: float = 0.0
    net_wait: float = 0.0

    def add(self, completion: QueryCompletion) -> None:
        queueing = completion.queueing_delay
        metrics = completion.result.metrics
        self.count += 1
        self.latencies.append(completion.latency)
        self.queueing_sum += queueing
        if queueing > self.queueing_max:
            self.queueing_max = queueing
        self.execution_sum += completion.execution_time
        if completion.slo_met is not False:
            self.slo_met += 1
        self.steal_bytes += metrics.loadbalance_bytes
        self.cross_steal_rounds += metrics.cross_steal_rounds
        self.cpu_wait += metrics.cpu_contention_time
        self.disk_wait += metrics.disk_wait_time
        self.net_wait += metrics.net_wait_time

    def mean(self, total: float) -> float:
        """``total`` (one of this fold's sums) per completion; 0.0 if none."""
        return total / self.count if self.count else 0.0


@dataclass
class WorkloadMetrics:
    """Aggregate observables of one multi-query workload run.

    ``makespan`` is the virtual time from the first arrival to the last
    completion; throughput and utilization are computed against it.
    :meth:`record` folds each completion, in record order, into run-level
    and per-class accumulators, and every aggregate accessor reads those.
    A completion is frozen when it is recorded (see
    :meth:`~repro.engine.executor.QueryExecutor.collect`), so the digest
    is a pure function of the completion stream: two runs of the same
    seeded workload produce byte-identical :meth:`summary` strings on any
    interpreter (the determinism regression tests compare exactly that).
    """

    #: in record order; filled only by :meth:`record`, which folds them too.
    completions: list[QueryCompletion] = field(default_factory=list,
                                               init=False)
    #: queries rejected by overload handling (queue timeout / deadline).
    shed: list[ShedRecord] = field(default_factory=list)
    #: queries generated but never admitted (still queued at the end of a
    #: bounded run); non-zero only when a run is stopped early.
    unfinished: int = 0
    first_arrival_time: float = 0.0
    last_completion_time: float = 0.0
    #: times the cross-query broker saw an actionable machine imbalance.
    broker_notifications: int = 0
    #: running queries whose hash builds were suspended (spilled) so a
    #: higher-priority admission's memory reservation could be met.
    memory_preemptions: int = 0
    #: hash-table bytes spilled by those preemptions (reload doubles the
    #: traffic; this counts the spill direction only).
    spill_bytes: int = 0
    #: submissions with ``attempt > 0``: shed queries that re-entered the
    #: arrival stream (live retries or replayed ones), counted at submit.
    retries: int = 0
    # -- placement accounting (all empty/zero when the ``paper`` no-op
    # -- policy is selected, in which case ``summary()`` omits the
    # -- "placement" digest so pre-placement baselines stay
    # -- byte-identical) ------------------------------------------------
    #: admissions placed per policy name (one entry per admitted query
    #: when a real placement policy is active).
    placements: dict = field(default_factory=dict)
    #: admissions whose join homes the policy actually rewrote.
    placements_changed: int = 0
    #: estimated redistribution bytes avoided vs the optimizer homes,
    #: summed over all placements (the policies' own page-transfer-model
    #: estimate; negative when placement shipped more).
    placement_bytes_avoided: int = 0
    # -- elastic-cluster accounting (all zero on a static cluster, in
    # -- which case ``summary()`` omits the "cluster" digest entirely so
    # -- static baselines stay byte-identical) --------------------------
    #: nodes that joined (scale-out commits) during the run.
    node_joins: int = 0
    #: nodes that left (drains completed) during the run.
    node_leaves: int = 0
    #: membership transitions that ran a rebalance (possibly zero moves).
    rebalances: int = 0
    #: individual cross-node partition shipments.
    rebalance_moves: int = 0
    #: partition bytes moved over the interconnect — the explicit
    #: movement cost, conserved against the placement deltas.
    rebalance_bytes: int = 0
    #: virtual seconds spent inside rebalances (serialized transitions).
    rebalance_seconds: float = 0.0
    #: highest and lowest planned node counts observed.
    peak_nodes: int = 0
    low_nodes: int = 0
    #: processors added by scale-outs — the "load gained" denominator the
    #: movement cost is priced against.
    load_gained_processors: int = 0
    _run: _Fold = field(default_factory=_Fold, init=False, repr=False)
    #: class name -> that class's fold, in first-completion order.
    _classes: dict[str, _Fold] = field(default_factory=dict, init=False,
                                       repr=False)

    def record(self, completion: QueryCompletion) -> None:
        if (self._run.count == 0
                or completion.arrival_time < self.first_arrival_time):
            self.first_arrival_time = completion.arrival_time
        self.last_completion_time = max(self.last_completion_time,
                                        completion.completion_time)
        self._run.add(completion)
        fold = self._classes.get(completion.service_class)
        if fold is None:
            fold = self._classes[completion.service_class] = _Fold()
        fold.add(completion)
        self.completions.append(completion)

    @property
    def makespan(self) -> float:
        """Virtual time from the first arrival to the last completion."""
        return max(0.0, self.last_completion_time - self.first_arrival_time)

    def _rate(self, count: int) -> float:
        """``count`` per virtual second of makespan."""
        return count / self.makespan if self.makespan > 0 else 0.0

    # -- headline numbers --------------------------------------------------

    @property
    def completed(self) -> int:
        return self._run.count

    def throughput(self) -> float:
        """Completed queries per virtual second over the makespan."""
        return self._rate(self._run.count)

    def latency_percentile(self, p: float) -> float:
        return percentile(self._run.latencies, p)

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)

    def mean_queueing_delay(self) -> float:
        return self._run.mean(self._run.queueing_sum)

    def max_queueing_delay(self) -> float:
        return self._run.queueing_max

    def mean_execution_time(self) -> float:
        return self._run.mean(self._run.execution_sum)

    def record_shed(self, record: ShedRecord) -> None:
        self.shed.append(record)

    @property
    def shed_count(self) -> int:
        return len(self.shed)

    def shed_reason_counts(self, service_class: Optional[str] = None) -> dict:
        """reason -> shed count (sorted by reason; optionally per class).

        The taxonomy view of :class:`ShedRecord.reason`; shed records are
        kept whether or not completions are.
        """
        counts: dict[str, int] = {}
        for record in self.shed:
            if (service_class is not None
                    and record.service_class != service_class):
                continue
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return dict(sorted(counts.items()))

    # -- per-service-class views -----------------------------------------------
    #
    # All per-class views key by the class *name* string carried on each
    # completion/shed record.  Two distinct ServiceClass objects sharing a
    # name would be merged indistinguishably here, which is why
    # WorkloadSpec rejects duplicate class names at construction.

    def _class(self, service_class: str) -> _Fold:
        """The class's fold (an empty one if it completed nothing)."""
        return self._classes.get(service_class) or _Fold()

    def class_names(self) -> list[str]:
        """Service classes seen in this run (completed or shed), sorted."""
        names = set(self._classes)
        names.update(s.service_class for s in self.shed)
        return sorted(names)

    def shed_of(self, service_class: str) -> list[ShedRecord]:
        return [s for s in self.shed if s.service_class == service_class]

    def class_completed(self, service_class: str) -> int:
        return self._class(service_class).count

    def class_throughput(self, service_class: str) -> float:
        """Completed queries of the class per virtual second of makespan."""
        return self._rate(self._class(service_class).count)

    def class_latency_percentile(self, service_class: str, p: float) -> float:
        return percentile(self._class(service_class).latencies, p)

    def class_mean_queueing_delay(self, service_class: str) -> float:
        fold = self._class(service_class)
        return fold.mean(fold.queueing_sum)

    def class_resource_waits(self, service_class: str) -> dict:
        """Mean per-query queueing delay at each service resource.

        The breakdown that says *where* an SLO was lost: time the class's
        queries spent queued for a processor (``cpu``), behind other read
        requests at the disk arms (``disk``) and for the network link
        (``net``) — all after admission, so none of it overlaps the
        admission queueing delay, and all before completion: what a last
        in-flight charge waits after the root operator ended cost no SLO.
        """
        fold = self._class(service_class)
        return {"cpu": fold.mean(fold.cpu_wait),
                "disk": fold.mean(fold.disk_wait),
                "net": fold.mean(fold.net_wait)}

    def slo_attainment(self, service_class: str) -> float:
        """Fraction of the class's queries that met their latency SLO.

        Shed queries count as misses (the client saw neither a result nor
        its deadline); completions without a declared SLO count as met —
        so a class with no SLO reports the fraction of its queries that
        were served at all.
        """
        fold = self._class(service_class)
        total = fold.count + len(self.shed_of(service_class))
        if total == 0:
            return 1.0
        return fold.slo_met / total

    def per_class_summary(self) -> dict:
        """class name -> plain-data digest (deterministic per seed)."""
        return {
            name: {
                "completed": self.class_completed(name),
                "shed": len(self.shed_of(name)),
                "shed_reasons": self.shed_reason_counts(name),
                "throughput": self.class_throughput(name),
                "p50_latency": self.class_latency_percentile(name, 50.0),
                "p95_latency": self.class_latency_percentile(name, 95.0),
                "mean_queueing_delay": self.class_mean_queueing_delay(name),
                "slo_attainment": self.slo_attainment(name),
                "resource_waits": self.class_resource_waits(name),
            }
            for name in self.class_names()
        }

    # -- steal traffic and resource waits, summed over all completions ------

    def total_steal_bytes(self) -> int:
        return self._run.steal_bytes

    def total_cross_steal_rounds(self) -> int:
        """Broker-initiated steal rounds summed over all completions."""
        return self._run.cross_steal_rounds

    def total_cpu_contention(self) -> float:
        """Processor queueing delay, each query's up to its completion."""
        return self._run.cpu_wait

    def total_disk_wait(self) -> float:
        """Disk queueing delay summed over all completions."""
        return self._run.disk_wait

    def total_net_wait(self) -> float:
        """Network-link queueing delay summed over all completions."""
        return self._run.net_wait

    # -- placement digest -----------------------------------------------------

    def record_placement(self, decision) -> None:
        """Count one admission-time placement decision
        (:class:`~repro.placement.base.PlacementDecision`)."""
        name = decision.policy
        self.placements[name] = self.placements.get(name, 0) + 1
        if decision.changed:
            self.placements_changed += 1
        self.placement_bytes_avoided += decision.bytes_avoided

    def placement_summary(self) -> Optional[dict]:
        """Placement digest, or None when no policy ever placed."""
        if not self.placements:
            return None
        return {
            "policies": dict(sorted(self.placements.items())),
            "plans_rewritten": self.placements_changed,
            "bytes_avoided": self.placement_bytes_avoided,
        }

    # -- elastic-cluster digest ---------------------------------------------

    def cluster_summary(self) -> Optional[dict]:
        """Membership-change digest, or None when the cluster stayed put.

        The movement-vs-gain price is explicit:
        ``bytes_per_processor_gained`` is the rebalance bytes paid for
        each processor of capacity the scale-outs added.
        """
        if not (self.node_joins or self.node_leaves or self.rebalances):
            return None
        gained = self.load_gained_processors
        return {
            "node_joins": self.node_joins,
            "node_leaves": self.node_leaves,
            "rebalances": self.rebalances,
            "rebalance_moves": self.rebalance_moves,
            "rebalance_bytes": self.rebalance_bytes,
            "rebalance_seconds": self.rebalance_seconds,
            "peak_nodes": self.peak_nodes,
            "low_nodes": self.low_nodes,
            "load_gained_processors": gained,
            "bytes_per_processor_gained": (
                self.rebalance_bytes / gained if gained else 0.0
            ),
        }

    # -- deterministic digest ------------------------------------------------

    def summary(self) -> dict:
        """A plain-data digest; ``repr(summary())`` is byte-stable per seed.

        On an elastic run a ``"cluster"`` sub-digest is appended; static
        runs omit the key entirely, keeping every pre-elastic baseline
        byte-identical (likewise ``"placement"``).
        """
        digest = {
            "completed": self.completed,
            "unfinished": self.unfinished,
            "shed": [
                (s.query_id, s.service_class, s.arrival_time, s.shed_time,
                 s.reason)
                for s in sorted(self.shed, key=lambda s: s.query_id)
            ],
            "shed_reasons": self.shed_reason_counts(),
            "makespan": self.makespan,
            "throughput": self.throughput(),
            "p50_latency": self.p50_latency,
            "p95_latency": self.p95_latency,
            "p99_latency": self.p99_latency,
            "mean_queueing_delay": self.mean_queueing_delay(),
            "max_queueing_delay": self.max_queueing_delay(),
            "mean_execution_time": self.mean_execution_time(),
            "total_steal_bytes": self.total_steal_bytes(),
            "total_cpu_contention": self.total_cpu_contention(),
            "total_disk_wait": self.total_disk_wait(),
            "total_net_wait": self.total_net_wait(),
            "cross_steal_rounds": self.total_cross_steal_rounds(),
            "broker_notifications": self.broker_notifications,
            "memory_preemptions": self.memory_preemptions,
            "spill_bytes": self.spill_bytes,
            "retries": self.retries,
            "per_class": self.per_class_summary(),
            "per_query": [
                (c.query_id, c.plan_label, c.service_class, c.arrival_time,
                 c.start_time, c.completion_time, c.steal_bytes,
                 c.result.metrics.result_tuples,
                 c.result.metrics.activations_processed)
                for c in sorted(self.completions, key=lambda c: c.query_id)
            ],
        }
        cluster = self.cluster_summary()
        if cluster is not None:
            digest["cluster"] = cluster
        placement = self.placement_summary()
        if placement is not None:
            digest["placement"] = placement
        return digest
