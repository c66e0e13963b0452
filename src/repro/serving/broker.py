"""Cross-query machine-share stealing.

The paper's steal protocol only ever moves a query's *own* activations,
and only when that query's thread starves.  Under multiprogramming the
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

from ..engine.substrate import Substrate
from .trace import BrokerImbalance

__all__ = ["CrossQueryBroker", "benefit_key"]

#: the broker acts only when the most loaded node queues more than this
#: many times the starving node's load.  The paper has no cross-query
#: broker; 2x is the value every shipped serving number ran with.
CROSS_STEAL_IMBALANCE = 2.0


class CrossQueryBroker:
    """Mediates machine-share stealing between co-resident queries.

    Receiver-initiated, in the taxonomy of the DLB surveys: the trigger
    is spare capacity (an idle thread of *any* query on node ``n``), the
    decision is machine-wide (the most loaded node must queue more than
    ``CROSS_STEAL_IMBALANCE`` times node ``n``'s load, and at least
    ``min_steal_activations`` so a round can amortize), and the action is
    delegated to each co-resident query's own
    :meth:`~repro.engine.scheduler.NodeScheduler.on_machine_starving` —
    i.e. the paper's protocol with its cooldowns, blocked-scope latches
    and five provider-side conditions fully intact.
    """

    def __init__(self, substrate: Substrate):
        self.substrate = substrate
        self.enabled = substrate.params.cross_query_steal
        #: memoized machine-wide load snapshot, valid for one virtual
        #: instant — idle signals cluster at the same timestamp (every
        #: thread that drains parks in the same event cascade), and one
        #: snapshot per instant is plenty for a heuristic trigger.  Each
        #: entry is an O(1) ``Substrate.node_load`` read.
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
        if peak <= local * CROSS_STEAL_IMBALANCE:
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
            targets = [min(targets,
                           key=lambda target: benefit_key(target[0]))]
        for _other, scheduler in targets:
            scheduler.on_machine_starving()


def benefit_key(context) -> tuple:
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
    backlog = max(
        node.total_queued_activations() for node in context.nodes
    )
    shipped = sum(node.store.bytes_held for node in context.nodes)
    return (-(backlog / (1.0 + shipped)), context.query_id)
