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
  into :data:`MEMORY_HEADROOM` of every home node's *current* free
  memory.  The signal is the same per-node ``SMNode.available`` the
  steal protocol ships in its *starving* messages (condition (i): "the
  requester must be able to store the activations and corresponding
  data"), so admission and load balancing see one consistent picture.

Every service class (:class:`~repro.serving.spec.ServiceClass`) passes
the same two gates; a class sets only its admission priority and when
its *queued* queries are shed instead of admitted (its ``queue_timeout``,
and its ``latency_slo`` under the policy's ``deadline_shedding``), so an
overloaded open-loop stream does not queue without bound.

The estimate is deliberately the optimizer's, not the truth: admission
decisions in real systems are made from cost-model cardinalities, and an
under-estimate can still overcommit (the engine then degrades, it does
not crash — stolen-copy installation already tolerates full nodes).  A
query whose demand can *never* fit (more than a node's capacity) is
admitted alone rather than deferred forever.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..optimizer.operator_tree import OpKind
from ..optimizer.plan import ParallelExecutionPlan
from .spec import AdmissionPolicy

__all__ = ["AdmissionController", "estimated_node_demand", "MEMORY_HEADROOM"]

#: the share of a home node's free memory a new query's estimated demand
#: may claim; the rest absorbs estimate error, stolen hash-table copies
#: and queue growth.  The paper admits one query at a time and names no
#: value; 0.8 is the one every experiment, example and ledger workload
#: ran with.
MEMORY_HEADROOM = 0.8


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


class AdmissionController:
    """Decides when a queued query may start executing."""

    def __init__(self, substrate, policy: AdmissionPolicy = AdmissionPolicy()):
        self.substrate = substrate
        self.policy = policy
        # --- statistics (the coordinator counts) ---------------------------
        self.admitted = 0
        #: queries that waited on a closed gate at least once (counted
        #: per query, not per gate re-evaluation).
        self.deferrals = 0

    def blocking_gate(self, plan: ParallelExecutionPlan, live_queries: int,
                      mpl: int) -> Optional[str]:
        """The first gate blocking ``plan``, or None if it may start.

        Names the blocker — ``"mpl"`` or ``"memory"`` — so the
        coordinator can intervene differently per gate (only a
        memory-blocked query is a preemption candidate; an MPL-blocked
        one just waits).  No statistics side effects.  ``live_queries``
        is the coordinator's running count (it covers SP executions, which
        register no ``ExecutionContext``), ``mpl`` the effective cap (on
        an elastic cluster, the membership-scaled one).
        """
        if live_queries >= mpl:
            return "mpl"
        if live_queries == 0:
            # Progress guarantee: an empty machine always takes the head
            # query, even one whose estimate can never fit.
            return None
        if self.memory_shortfall(plan):
            return "memory"
        return None

    def memory_shortfall(self, plan: ParallelExecutionPlan) -> Dict[int, int]:
        """node id -> bytes by which the plan's demand overshoots the gate.

        The memory gate itself, reported per node: a node is short when
        the plan's estimated demand there exceeds :data:`MEMORY_HEADROOM`
        of its free memory.  The coordinator's victim selector ranks
        suspension candidates by their spillable bytes *on these nodes*
        (freeing memory elsewhere would not unblock the query).  Empty
        when the gate passes.
        """
        shortfall: Dict[int, int] = {}
        for node_id, nbytes in estimated_node_demand(plan).items():
            allowed = self.substrate.free_memory(node_id) * MEMORY_HEADROOM
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
