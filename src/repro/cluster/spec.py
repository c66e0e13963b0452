"""Cluster membership as data: the serializable elastic-cluster spec.

The paper (and every layer grown on top of it so far) freezes the
machine at :class:`~repro.sim.machine.MachineConfig` construction time.
A :class:`ClusterSpec` lifts that: it still names the *physical*
machine — ``machines`` is the full footprint the substrate is built at —
but the set of SM-nodes actually serving queries becomes state that
changes mid-run, driven by two serializable sources:

* ``events`` — a timeline of :class:`ClusterEventSpec`\\ s ("2 nodes
  join at t=5", "1 node leaves at t=20") scheduled on the simulation
  clock;
* ``autoscaler`` — an :class:`AutoscalerSpec` control loop that watches
  demand against the admission capacity and scales the active node set
  out/in, with a provisioning latency and a cooldown.

Membership is *prefix-shaped*: the active set is always ``range(k)``.
Scale-out activates the next node ids; scale-in drains the highest
active id first.  That keeps plan compilation trivially indexable (a
plan population compiled for ``k`` nodes is valid exactly while ``k``
nodes are planned) and matches how the rebalancer diffs placements.

Everything here is a frozen dataclass with scalar/tuple fields only, so
the generic codec (:mod:`repro.api.serde`) serializes it for free and
every knob — ``cluster.autoscaler.target_utilization``,
``cluster.initial_nodes`` — is sweepable as a dotted
:class:`~repro.api.sweep.SweepSpec` axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from ..sim.machine import MachineConfig

__all__ = ["CLUSTER_ACTIONS", "AutoscalerSpec", "ClusterEventSpec",
           "ClusterSpec"]

#: actions a :class:`ClusterEventSpec` may name.
CLUSTER_ACTIONS = ("join", "leave")


@dataclass(frozen=True)
class ClusterEventSpec:
    """One scheduled membership change: ``nodes`` join or leave at ``at``."""

    at: float = 0.0
    action: str = "join"
    nodes: int = 1

    def __post_init__(self) -> None:
        if self.action not in CLUSTER_ACTIONS:
            raise ValueError(
                f"unknown cluster action {self.action!r}; "
                f"known: {list(CLUSTER_ACTIONS)}"
            )
        if self.at < 0 or not math.isfinite(self.at):
            raise ValueError(
                f"event time must be >= 0 and finite, got {self.at}"
            )
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")


@dataclass(frozen=True)
class AutoscalerSpec:
    """Reactive scaling policy, one decision per ``interval``.

    Utilization is demand over capacity: live plus queued queries against
    the effective multiprogramming limit of the currently planned node
    set.  Above ``target_utilization`` the autoscaler adds one node
    (after ``scale_out_latency`` of provisioning); below
    ``scale_in_utilization`` it drains one, down to ``min_nodes``.  It
    scales out up to the whole physical machine
    (``ClusterSpec.machines.nodes``).  ``cooldown`` is the minimum
    spacing between two *decisions* — a decision exactly ``cooldown``
    after the previous one is allowed (boundary inclusive).
    """

    target_utilization: float = 0.75
    scale_in_utilization: float = 0.25
    scale_out_latency: float = 0.0
    cooldown: float = 0.0
    interval: float = 0.25
    min_nodes: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.target_utilization or not math.isfinite(
                self.target_utilization):
            raise ValueError(
                f"target_utilization must be positive and finite, got "
                f"{self.target_utilization}"
            )
        if not 0.0 <= self.scale_in_utilization < self.target_utilization:
            raise ValueError(
                f"scale_in_utilization must be in [0, target_utilization), "
                f"got {self.scale_in_utilization} against target "
                f"{self.target_utilization}"
            )
        if self.scale_out_latency < 0 or not math.isfinite(
                self.scale_out_latency):
            raise ValueError(
                f"scale_out_latency must be >= 0, got {self.scale_out_latency}"
            )
        if self.cooldown < 0 or not math.isfinite(self.cooldown):
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.interval <= 0 or not math.isfinite(self.interval):
            raise ValueError(
                f"interval must be positive, got {self.interval}"
            )
        if self.min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {self.min_nodes}")


@dataclass(frozen=True)
class ClusterSpec:
    """The cluster as data: physical footprint plus a membership story.

    ``machines`` is the full physical machine (the substrate is built at
    this size once; joining nodes power on, leaving nodes drain — the
    hardware model never changes shape mid-run).  ``initial_nodes`` is
    how many of those nodes serve queries at t=0 (default: all).  A spec
    with no events, no autoscaler and a full initial set is *static* and
    behaves byte-identically to the pre-elastic ``MachineConfig``
    surface.
    """

    machines: MachineConfig = field(default_factory=MachineConfig)
    initial_nodes: Optional[int] = None
    events: tuple[ClusterEventSpec, ...] = ()
    autoscaler: Optional[AutoscalerSpec] = None

    def __post_init__(self) -> None:
        total = self.machines.nodes
        if self.initial_nodes is not None and not (
                1 <= self.initial_nodes <= total):
            raise ValueError(
                f"initial_nodes must be in [1, {total}], got "
                f"{self.initial_nodes}"
            )
        if self.autoscaler is not None and self.autoscaler.min_nodes > total:
            raise ValueError(
                f"autoscaler min_nodes ({self.autoscaler.min_nodes}) exceeds "
                f"the machine's {total} node(s)"
            )
        # Walking the timeline validates it: membership may never leave
        # [1, machines.nodes] at any point of the schedule.
        self.size_bounds()

    # -- derived shape -------------------------------------------------------

    @property
    def active_at_start(self) -> int:
        """Nodes serving queries at t=0."""
        if self.initial_nodes is None:
            return self.machines.nodes
        return self.initial_nodes

    @property
    def elastic(self) -> bool:
        """Whether membership can (or does) differ from the full machine."""
        return bool(self.events) or self.autoscaler is not None or (
            self.active_at_start != self.machines.nodes
        )

    @property
    def static(self) -> bool:
        return not self.elastic

    def timeline(self) -> tuple[ClusterEventSpec, ...]:
        """Events in schedule order (time, then declaration order)."""
        ordered = sorted(
            enumerate(self.events), key=lambda pair: (pair[1].at, pair[0])
        )
        return tuple(event for _index, event in ordered)

    def size_bounds(self) -> tuple[int, int]:
        """Smallest and largest active-node counts this spec can reach."""
        total = self.machines.nodes
        count = self.active_at_start
        lo = hi = count
        for index, event in enumerate(self.timeline()):
            count += event.nodes if event.action == "join" else -event.nodes
            if not 1 <= count <= total:
                raise ValueError(
                    f"cluster timeline leaves [1, {total}] nodes: event "
                    f"{index} ({event.action} {event.nodes} at t={event.at}) "
                    f"reaches {count}"
                )
            lo = min(lo, count)
            hi = max(hi, count)
        if self.autoscaler is not None:
            lo = min(lo, self.autoscaler.min_nodes)
            hi = total
        return lo, hi

    def reachable_sizes(self) -> tuple[int, ...]:
        """Every active-node count a run of this spec may plan for."""
        lo, hi = self.size_bounds()
        return tuple(range(lo, hi + 1))

    def machines_at(self, nodes: int) -> MachineConfig:
        """The machine shape seen by plans compiled for ``nodes`` actives."""
        if nodes == self.machines.nodes:
            return self.machines
        return replace(self.machines, nodes=nodes)
