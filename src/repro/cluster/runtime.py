"""The elastic cluster at run time: timeline, autoscaler, transitions.

An :class:`ElasticCluster` is created by the
:class:`~repro.serving.coordinator.MultiQueryCoordinator` when its
:class:`~repro.cluster.spec.ClusterSpec` is elastic.  It owns the live
:class:`~repro.cluster.membership.ClusterMembership` (installed on the
shared substrate so the broker and steal protocol see it), a
:class:`~repro.cluster.rebalance.Rebalancer` for partition movement, and
two drivers of change: the spec's event timeline and the optional
autoscaler control loop.

Transition semantics (all serialized — one membership change at a time,
in deterministic order):

* **scale-out** — provisioning latency elapses (autoscaler-driven
  changes only), the rebalancer ships each resident relation's share
  deltas onto the joining nodes, *then* membership commits: only after
  the data arrived do new queries plan across the larger set.
* **scale-in** — the leaving nodes are marked draining immediately (new
  queries plan around them, the broker stops attracting work to them,
  their own steal rounds stop), their partition shares ship off, and the
  nodes leave once no in-flight query still spans them.  In-flight
  queries keep their admission-time node set — the paper's execution
  model pins operator homes at start, so membership changes apply to the
  *next* admission, never mid-query.

Every transition logs structured trace events (``node_joined`` /
``node_draining`` / ``node_left`` / ``rebalance``) through the
substrate's run logger, and the movement-vs-gain accounting (bytes
moved, processors gained) lands in ``WorkloadMetrics``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..serving.trace import (NodeDraining, NodeJoined, NodeLeft,
                             RebalanceCompleted)
from .membership import ClusterMembership
from .rebalance import Rebalancer
from .spec import ClusterSpec

__all__ = ["ElasticCluster"]


class ElasticCluster:
    """Live membership plus the processes that change it."""

    def __init__(self, coordinator, spec: ClusterSpec, relations: Sequence):
        self.coordinator = coordinator
        self.spec = spec
        self.substrate = coordinator.substrate
        self.env = self.substrate.env
        self.membership = ClusterMembership(spec.machines,
                                            spec.active_at_start)
        #: the substrate publishes membership to the broker and the
        #: engine's steal protocol (drain awareness).
        self.substrate.membership = self.membership
        self.rebalancer = Rebalancer(self.substrate, relations)
        #: one transition at a time; others wait on :attr:`_idle`.
        self.busy = False
        self._idle = None
        #: poked by the coordinator on every query completion, so drains
        #: can wait for the in-flight queries that span leaving nodes.
        self._drain_kick = None
        # --- statistics -------------------------------------------------
        self.joins = 0
        self.leaves = 0
        self.load_gained_processors = 0
        self.peak_nodes = self.membership.planning_count
        self.low_nodes = self.membership.planning_count
        timeline = spec.timeline()
        if timeline:
            self.env.process(self._timeline(timeline), name="cluster-timeline")
        if spec.autoscaler is not None:
            self.env.process(self._autoscale(), name="cluster-autoscaler")

    # -- coordinator hooks ---------------------------------------------------

    def close(self) -> None:
        """The run drained: drop the rebalance overlay's inboxes, which
        point back at the rebalancer."""
        self.rebalancer.network.close()

    @property
    def planning_count(self) -> int:
        return self.membership.planning_count

    def on_query_finished(self) -> None:
        """A query completed — a waiting drain may now be able to finish."""
        if self._drain_kick is not None and not self._drain_kick.triggered:
            kick, self._drain_kick = self._drain_kick, None
            kick.succeed()

    # -- the timeline driver -------------------------------------------------

    def _timeline(self, events):
        for event in events:
            if event.at > self.env.now:
                yield self.env.timeout_at(event.at)
            delta = event.nodes if event.action == "join" else -event.nodes
            yield from self._transition(
                self.membership.planning_count + delta,
                reason="timeline", latency=0.0,
            )

    # -- the autoscaler control loop ----------------------------------------

    def _autoscale(self):
        spec = self.spec.autoscaler
        max_nodes = self.spec.machines.nodes
        last_decision: Optional[float] = None
        while True:
            yield self.env.timeout(spec.interval)
            coordinator = self.coordinator
            if coordinator.workload_done:
                return
            if self.busy:
                continue
            if (last_decision is not None
                    and self.env.now - last_decision < spec.cooldown):
                continue
            demand = len(coordinator.running) + len(coordinator.pending)
            utilization = demand / coordinator.mpl_cap()
            planning = self.membership.planning_count
            if (utilization > spec.target_utilization
                    and planning < max_nodes):
                last_decision = self.env.now
                yield from self._transition(
                    planning + 1, reason="autoscaler",
                    latency=spec.scale_out_latency,
                )
            elif (utilization < spec.scale_in_utilization
                    and planning > spec.min_nodes):
                last_decision = self.env.now
                yield from self._transition(
                    planning - 1, reason="autoscaler", latency=0.0,
                )

    # -- transitions ---------------------------------------------------------

    def _transition(self, target: int, reason: str, latency: float):
        """Move planned membership to ``target`` nodes (serialized)."""
        while self.busy:
            if self._idle is None or self._idle.triggered:
                self._idle = self.env.event("cluster-idle")
            yield self._idle
        self.busy = True
        try:
            planning = self.membership.planning_count
            if target > planning:
                yield from self._scale_out(target, reason, latency)
            elif target < planning:
                yield from self._scale_in(target, reason)
        finally:
            self.busy = False
            if self._idle is not None and not self._idle.triggered:
                idle, self._idle = self._idle, None
                idle.succeed()

    def _scale_out(self, target: int, reason: str, latency: float):
        if latency > 0:
            yield self.env.timeout(latency)  # provisioning
        membership = self.membership
        old_active = membership.planning_nodes()
        started = self.env.now
        moves = self.rebalancer.plan_moves(old_active, tuple(range(target)))
        yield from self.rebalancer.execute(moves)
        joined = membership.join(target - membership.member_count)
        self.joins += len(joined)
        self.load_gained_processors += (
            len(joined) * self.spec.machines.processors_per_node
        )
        self.peak_nodes = max(self.peak_nodes, membership.planning_count)
        logger = self.substrate.logger
        if logger.enabled:
            for node_id in joined:
                logger.log(NodeJoined(
                    time=self.env.now, node_id=node_id,
                    active_nodes=membership.planning_count,
                ))
            self._log_rebalance(len(old_active), target, moves,
                                started, reason)
        self.coordinator.on_cluster_changed()

    def _scale_in(self, target: int, reason: str):
        membership = self.membership
        old_planning = membership.planning_count
        draining = membership.begin_drain(old_planning - target)
        logger = self.substrate.logger
        if logger.enabled:
            for node_id in draining:
                logger.log(NodeDraining(
                    time=self.env.now, node_id=node_id,
                    active_nodes=membership.planning_count,
                ))
        self.low_nodes = min(self.low_nodes, membership.planning_count)
        # New admissions immediately plan around the draining nodes.
        self.coordinator.on_cluster_changed()
        started = self.env.now
        moves = self.rebalancer.plan_moves(
            tuple(range(old_planning)), membership.planning_nodes()
        )
        yield from self.rebalancer.execute(moves)
        if logger.enabled:
            self._log_rebalance(old_planning, target, moves, started, reason)
        # Wait for every in-flight query whose node set spans a draining
        # node; new ones cannot arrive (planning already excludes them).
        while self._queries_spanning(target):
            if self._drain_kick is None or self._drain_kick.triggered:
                self._drain_kick = self.env.event("cluster-drain")
            yield self._drain_kick
        left = membership.complete_drain(len(draining))
        self.leaves += len(left)
        if logger.enabled:
            for node_id in left:
                logger.log(NodeLeft(
                    time=self.env.now, node_id=node_id,
                    active_nodes=membership.planning_count,
                ))
        self.coordinator.on_cluster_changed()

    def _queries_spanning(self, target: int) -> bool:
        return any(request.planned_size > target
                   for request in self.coordinator.running.values())

    def _log_rebalance(self, from_nodes: int, to_nodes: int, moves,
                       started: float, reason: str) -> None:
        self.substrate.logger.log(RebalanceCompleted(
            time=self.env.now, from_nodes=from_nodes, to_nodes=to_nodes,
            moves=len(moves), bytes_moved=sum(m.nbytes for m in moves),
            duration=self.env.now - started, reason=reason,
        ))
