"""Shared physical substrate for concurrent query executions.

The paper executes one query at a time: each
:class:`~repro.engine.context.ExecutionContext` owns its environment,
machine, disks and (implicitly) processors.  The serving layer breaks that
exclusivity: a :class:`SharedSubstrate` owns the physical state once —

* one :class:`~repro.sim.core.Environment` (so every query's events merge
  onto a single deterministic ``(time, priority, sequence)`` heap),
* one :class:`~repro.sim.machine.Machine` (node memory pools shared: hash
  tables of concurrent queries compete for the same bytes, and the
  admission controller reads the live free-memory signal the steal
  protocol already uses),
* one :class:`~repro.sim.machine.Processor` per (node, index) (threads of
  different queries queue behind each other's CPU charges under
  ``params.cpu_discipline``),
* one :class:`~repro.sim.disk.Disk` per (node, arm) (concurrent scans
  contend for arms under ``params.disk_discipline``; read streams are
  query-scoped so the sequential prefetch never conflates two queries'
  scans),
* at most one :class:`~repro.sim.network.NetworkLink` (finite-bandwidth
  interconnects only): messages of all queries serialize over it under
  ``params.net_discipline``

— and every concurrent :class:`ExecutionContext` borrows it.  Each context
keeps a private :class:`~repro.sim.network.Network` overlay over the
shared link, so per-query traffic counters (steal bytes per query) stay
exact and free; with the paper's infinite bandwidth the overlays are
observationally identical to a single multiplexed network.

The substrate also aggregates the *cross-query* load signal
(:meth:`node_load`): the steal protocol ranks provider nodes by
machine-wide queued work, so a node saturated by another query is a better
steal victim than an idle one — the inter-query dimension of the paper's
load balancing.
"""

from __future__ import annotations

from typing import Optional

from ..engine.params import ExecutionParams
from ..sim.core import Environment, make_discipline
from ..sim.disk import Disk
from ..sim.machine import (Machine, MachineConfig, Processor, make_disks,
                           make_processors)
from ..sim.network import NetworkLink
from .broker import CrossQueryBroker
from .trace import NOOP_LOGGER

__all__ = ["SharedSubstrate"]


class SharedSubstrate:
    """One physical machine shared by many concurrent query executions."""

    def __init__(self, config: MachineConfig,
                 params: Optional[ExecutionParams] = None):
        self.config = config
        self.params = params or ExecutionParams()
        self.env = Environment()
        self.machine = Machine(config)
        #: the CPU scheduling discipline every processor of this machine
        #: runs (``params.cpu_discipline``): FIFO, fair share or
        #: priority-preemptive — the serving layer's machine-scheduler
        #: choice, uniform across the machine.
        self.discipline = make_discipline(self.params.cpu_discipline)
        self.processors: list[list[Processor]] = make_processors(
            self.env, config, self.discipline
        )
        #: every disk arm of the machine runs ``params.disk_discipline``
        #: — the same registry as the CPUs, so an interactive class's
        #: reads can jump (or preempt) batch scans at the disk too.
        self.disk_discipline = make_discipline(self.params.disk_discipline)
        self.disks: list[list[Disk]] = make_disks(
            self.env, self.params.disk, config, self.disk_discipline
        )
        #: the one physical interconnect, shared by every query's network
        #: overlay; None with the paper's infinite bandwidth (no
        #: queueing, so nothing to schedule).
        self.net_link = None
        if self.params.network.bandwidth is not None:
            self.net_link = NetworkLink(
                self.env, self.params.network,
                make_discipline(self.params.net_discipline),
            )
        #: live (admitted, unfinished) execution contexts.
        self.contexts: list = []
        #: hook the coordinator installs so mid-execution memory releases
        #: (a probe's end freeing its join's hash tables) re-evaluate
        #: admission immediately instead of waiting for a completion.
        self.on_memory_release = None
        #: structured run-event sink (see :mod:`repro.serving.trace`);
        #: the coordinator installs a real one when recording.  Lives on
        #: the substrate so the engine scheduler (which only sees
        #: ``context.substrate``) can log steal rounds and transfers.
        self.logger = NOOP_LOGGER
        #: cross-query machine-share broker (installed here so even bare
        #: substrates run it; gated by ``params.cross_query_steal``).
        self.broker = CrossQueryBroker(self)
        #: live cluster membership, installed by an
        #: :class:`~repro.cluster.runtime.ElasticCluster` when the run is
        #: elastic; None on a static cluster (every node is a member).
        self.membership = None

    # -- context registry ---------------------------------------------------

    def register_context(self, context) -> None:
        """A query execution was admitted onto this machine."""
        if self.membership is None:
            if context.config.nodes != self.config.nodes:
                raise ValueError(
                    f"context expects {context.config.nodes} nodes but the "
                    f"substrate has {self.config.nodes}"
                )
        elif context.config.nodes > self.config.nodes:
            # Elastic: contexts span the active prefix of the physical
            # footprint, so any size up to the footprint is valid.
            raise ValueError(
                f"context expects {context.config.nodes} nodes but the "
                f"cluster's physical footprint is {self.config.nodes}"
            )
        if context.config.processors_per_node != self.config.processors_per_node:
            raise ValueError(
                f"context expects {context.config.processors_per_node} "
                f"processors/node but the substrate has "
                f"{self.config.processors_per_node}"
            )
        # Per-query params may legitimately differ in seed, skew, batch
        # sizes etc., but the *hardware* models must match the shared
        # devices this substrate already built — a query with a different
        # disk model or CPU speed would silently mix two machines.
        if context.params.disk != self.params.disk:
            raise ValueError(
                "context disk parameters differ from the shared substrate's; "
                "the disks are shared hardware and were built from the "
                "substrate's model"
            )
        if context.params.network != self.params.network:
            raise ValueError(
                "context network parameters differ from the shared "
                "substrate's; the interconnect is shared hardware and its "
                "link was built from the substrate's model"
            )
        if context.params.cost.mips != self.params.cost.mips:
            raise ValueError(
                "context CPU speed (cost.mips) differs from the shared "
                "substrate's; processors are shared hardware"
            )
        self.contexts.append(context)

    def notify_memory_released(self) -> None:
        """Engine hook: a query freed node memory mid-execution."""
        if self.on_memory_release is not None:
            self.on_memory_release()

    def unregister_context(self, context) -> None:
        """A query execution completed; drop it from the live set."""
        try:
            self.contexts.remove(context)
        except ValueError:
            pass

    # -- cross-query signals ------------------------------------------------

    def node_load(self, node_id: int) -> int:
        """Queued activations on ``node_id`` summed over all live queries.

        Elastic runs admit contexts of different sizes; a query that
        planned on a smaller prefix simply contributes no load on the
        nodes it does not span.
        """
        return sum(
            context.nodes[node_id].total_queued_activations()
            for context in self.contexts
            if node_id < len(context.nodes)
        )

    def free_memory(self, node_id: int) -> int:
        """Unreserved bytes on ``node_id`` (live across all queries)."""
        return self.machine.node(node_id).available
