"""Admission control: gate concurrent queries on memory and MPL.

The paper's engine assumes "each pipeline chain fits in memory" (Section
2.2) — safe when one query owns the machine, violated as soon as several
run concurrently and their hash tables compete for the same node pools
(:class:`~repro.sim.machine.MemoryExhausted` is the failure mode).  The
admission controller restores the invariant for multi-query workloads by
holding arrivals in a FIFO queue until the machine can take them.

Two machine-wide gates, both read from live shared state rather than
static reservations:

* **multiprogramming level** — at most ``max_multiprogramming`` queries
  executing at once (the knob the workload experiments sweep);
* **memory** — the query's estimated per-node hash-table demand must fit
  into every home node's *current* free memory with ``memory_headroom``
  to spare.  The signal is the same per-node ``SMNode.available`` the
  steal protocol ships in its *starving* messages (condition (i): "the
  requester must be able to store the activations and corresponding
  data"), so admission and load balancing see one consistent picture.

Service classes (:mod:`repro.serving.classes`) layer per-class gates on
top: a class may cap its own multiprogramming level and tighten its
memory headroom, and the policy's overload handling (``queue_timeout``,
``deadline_shedding``) decides when a *queued* query is shed instead of
admitted — the open-loop overload behaviour the ROADMAP asked for, where
previously an overloaded stream just queued without bound.

The estimate is deliberately the optimizer's, not the truth: admission
decisions in real systems are made from cost-model cardinalities, and an
under-estimate can still overcommit (the engine then degrades, it does
not crash — stolen-copy installation already tolerates full nodes).  A
query whose demand can *never* fit (more than a node's capacity) is
admitted alone rather than deferred forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..optimizer.operator_tree import OpKind
from ..optimizer.plan import ParallelExecutionPlan

__all__ = ["AdmissionPolicy", "AdmissionController", "estimated_node_demand"]


def estimated_node_demand(plan: ParallelExecutionPlan) -> Dict[int, int]:
    """node id -> estimated hash-table bytes the plan pins there.

    Every build operator materializes its (estimated) input as a hash
    table spread over its home nodes; scans and probes stream and pin
    only bounded queue space, which the flow-control bounds already cap.
    """
    tuple_size = max(
        (rel.tuple_size for rel in plan.graph.relations.values()), default=100
    )
    demand: Dict[int, int] = {}
    for op in plan.operators:
        if op.kind is not OpKind.BUILD:
            continue
        home = plan.homes[op.op_id]
        if not home:
            continue
        per_node = int(op.input_cardinality * tuple_size / len(home))
        for node_id in home:
            demand[node_id] = demand.get(node_id, 0) + per_node
    return demand


@dataclass(frozen=True)
class AdmissionPolicy:
    """Admission knobs.

    ``max_multiprogramming`` caps concurrently executing queries;
    ``memory_headroom`` is the fraction of a node's *free* memory a new
    query's estimated demand may claim (the rest absorbs estimate error,
    stolen hash-table copies and queue growth).

    Overload handling (open-loop streams): ``queue_timeout`` sheds any
    query still awaiting admission after that many virtual seconds (a
    service class's own ``queue_timeout`` overrides it), and
    ``deadline_shedding`` additionally sheds a queued query the moment
    its class's latency SLO can no longer be met.  Both default off, so a
    policy-less workload behaves exactly as before: it queues.

    Preemptive memory management: with ``memory_preemption`` on, a head
    query blocked on the memory gate alone may *suspend* a running
    lower-priority query's hash build — its reserved bytes spill back to
    the node pools (timed like a steal page transfer) and reload when the
    preemptor resolves — instead of waiting for batch work to drain on
    its own.  ``preemption_shed`` additionally sheds the blocked query
    with reason ``"memory_preempted"`` when no eligible victim exists
    (fail fast rather than rot past the SLO).  Both default off.
    """

    max_multiprogramming: int = 8
    memory_headroom: float = 0.8
    queue_timeout: Optional[float] = None
    deadline_shedding: bool = False
    memory_preemption: bool = False
    preemption_shed: bool = False

    def __post_init__(self) -> None:
        if self.max_multiprogramming < 1:
            raise ValueError(
                f"max_multiprogramming must be >= 1, got "
                f"{self.max_multiprogramming}"
            )
        if not 0.0 < self.memory_headroom <= 1.0:
            raise ValueError(
                f"memory_headroom must be in (0, 1], got {self.memory_headroom}"
            )
        if self.queue_timeout is not None and self.queue_timeout <= 0:
            raise ValueError(
                f"queue_timeout must be positive, got {self.queue_timeout}"
            )


class AdmissionController:
    """Decides when a queued query may start executing."""

    def __init__(self, substrate, policy: AdmissionPolicy = AdmissionPolicy()):
        self.substrate = substrate
        self.policy = policy
        # --- statistics -------------------------------------------------
        self.admitted = 0
        #: queries that waited on a closed gate at least once (counted
        #: per query by the coordinator, not per gate re-evaluation).
        self.deferrals = 0
        #: queries shed by overload handling before starting.
        self.shed = 0
        self.admitted_by_class: Dict[str, int] = {}
        self.deferrals_by_class: Dict[str, int] = {}
        self.shed_by_class: Dict[str, int] = {}

    def blocking_gate(self, plan: ParallelExecutionPlan, live_queries: int,
                      service_class, class_running: int,
                      mpl: int) -> Optional[str]:
        """The first gate blocking ``plan``, or None if it may start.

        Names the blocker — ``"mpl"``, ``"class_mpl"`` or ``"memory"`` —
        so the coordinator can intervene differently per gate (only a
        memory-blocked query is a preemption candidate; an MPL-blocked
        one just waits).  No statistics side effects.  ``live_queries``
        is the coordinator's running count (it covers SP executions, which
        register no ``ExecutionContext``), ``mpl`` the effective cap (on
        an elastic cluster, the membership-scaled one); ``service_class``
        adds the class's own gates (its MPL cap against ``class_running``,
        its memory-headroom override) unless None.
        """
        substrate = self.substrate
        if live_queries >= mpl:
            return "mpl"
        if live_queries == 0:
            # Progress guarantee: an empty machine always takes the head
            # query, even one whose estimate can never fit.
            return None
        headroom = self.policy.memory_headroom
        if service_class is not None:
            cap = service_class.max_multiprogramming
            if cap is not None and class_running >= cap:
                return "class_mpl"
            if service_class.memory_headroom is not None:
                headroom = service_class.memory_headroom
        demand = estimated_node_demand(plan)
        for node_id, nbytes in demand.items():
            free = substrate.free_memory(node_id)
            if nbytes > free * headroom:
                return "memory"
        return None

    def memory_shortfall(self, plan: ParallelExecutionPlan,
                         service_class=None) -> Dict[int, int]:
        """node id -> bytes by which the plan's demand overshoots the gate.

        The same arithmetic as the memory gate, reported per node — the
        coordinator's victim selector ranks suspension candidates by
        their spillable bytes *on these nodes* (freeing memory elsewhere
        would not unblock the query).  Empty when the gate passes.
        """
        headroom = self.policy.memory_headroom
        if (service_class is not None
                and service_class.memory_headroom is not None):
            headroom = service_class.memory_headroom
        demand = estimated_node_demand(plan)
        shortfall: Dict[int, int] = {}
        for node_id, nbytes in demand.items():
            allowed = self.substrate.free_memory(node_id) * headroom
            if nbytes > allowed:
                shortfall[node_id] = int(nbytes - allowed)
        return shortfall

    def shed_deadline(self, arrival_time: float,
                      service_class) -> tuple[Optional[float], str]:
        """``(instant a queued query must be shed at or None, reason)``.

        The earlier of the class/policy queue timeout (``"queue_timeout"``)
        and — when ``deadline_shedding`` is on — the expiry of the class's
        latency SLO (``"deadline"``, which also wins a tie).  Both are
        ``arrival_time`` plus per-class constants: within a class,
        deadlines follow arrival order (``PendingQueues`` relies on it).
        """
        deadline, reason = None, "queue_timeout"
        timeout = self.policy.queue_timeout
        if service_class is not None and service_class.queue_timeout is not None:
            timeout = service_class.queue_timeout
        if timeout is not None:
            deadline = arrival_time + timeout
        if (self.policy.deadline_shedding and service_class is not None
                and service_class.latency_slo is not None):
            slo_expiry = arrival_time + service_class.latency_slo
            if deadline is None or slo_expiry <= deadline:
                deadline, reason = slo_expiry, "deadline"
        return deadline, reason

    # -- statistics ---------------------------------------------------------

    def _bump(self, counters: Dict[str, int], service_class) -> None:
        name = service_class.name if service_class is not None else "default"
        counters[name] = counters.get(name, 0) + 1

    def on_admitted(self, service_class=None) -> None:
        self.admitted += 1
        self._bump(self.admitted_by_class, service_class)

    def on_deferred(self, service_class=None) -> None:
        self.deferrals += 1
        self._bump(self.deferrals_by_class, service_class)

    def on_shed(self, service_class=None) -> None:
        self.shed += 1
        self._bump(self.shed_by_class, service_class)
