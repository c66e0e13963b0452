"""The machine a query executes on — the only way to get hardware.

The paper has one machine (Section 2: SM-nodes, processors, one disk per
processor, the interconnect) that a query's threads are handed
(Section 3.1), whether one query runs or many.  A :class:`Substrate` is
that machine, built once:

* one :class:`~repro.sim.core.Environment` (so every query's events merge
  onto a single deterministic ``(time, priority, sequence)`` heap),
* one :class:`~repro.sim.machine.Machine` (node memory pools: hash tables
  of concurrent queries compete for the same bytes, and the admission
  controller reads the live free-memory signal the steal protocol
  already uses),
* one :class:`~repro.sim.machine.Processor` per (node, index) (threads of
  different queries queue behind each other's CPU charges under
  ``params.cpu_discipline`` — FIFO, fair share or priority-preemptive,
  uniform across the machine),
* one :class:`~repro.sim.disk.Disk` per (node, arm) (concurrent scans
  contend for arms under ``params.disk_discipline``, the same registry,
  so an interactive class's reads can jump or preempt batch scans at
  the disk too; read streams are query-scoped so the sequential
  prefetch never conflates two queries' scans),
* at most one :class:`~repro.sim.network.NetworkLink` (finite-bandwidth
  interconnects only): messages of all queries serialize over it under
  ``params.net_discipline``

— and every execution launched on it borrows it: DP and FP through an
:class:`~repro.engine.context.ExecutionContext`, SP through its own
executor, one query alone (``QueryExecutor.run`` builds a private
substrate) or many co-resident (the serving layer's coordinator builds
one for the run).  It also holds what is machine-wide rather than
per-query: the live contexts and their summed load
(:meth:`Substrate.node_load`), and the slots the upper layers fill
(logger, broker, membership, memory-release hook).
"""

from __future__ import annotations

from typing import Optional

from ..sim.core import Environment, make_discipline
from ..sim.disk import Disk
from ..sim.machine import (Machine, MachineConfig, Processor, make_disks,
                           make_processors)
from ..sim.network import NetworkLink
from .params import ExecutionParams
from .runlog import NOOP_LOGGER

__all__ = ["Substrate"]


class Substrate:
    """One physical machine, and the executions currently on it."""

    def __init__(self, config: MachineConfig,
                 params: Optional[ExecutionParams] = None,
                 strict_memory: bool = True):
        self.config = config
        self.params = params or ExecutionParams()
        #: whether a hash build whose chain does not fit in node memory
        #: raises :class:`~repro.sim.machine.MemoryExhausted` (the paper's
        #: Section 2.2 assumption, kept for a query run alone) or degrades
        #: to unreserved accounting (a shared machine, where a racing
        #: build may beat the admission estimate) — the builder's call.
        self.strict_memory = strict_memory
        self.env = Environment()
        self.machine = Machine(config)
        self.processors: list[list[Processor]] = make_processors(
            self.env, config, make_discipline(self.params.cpu_discipline)
        )
        self.disks: list[list[Disk]] = make_disks(
            self.env, self.params.disk, config,
            make_discipline(self.params.disk_discipline),
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
        #: live (launched, unfinished) execution contexts.
        self.contexts: list = []
        #: queued activations per node, summed over the live contexts:
        #: every ``OperatorQueueSet`` mutation of a registered context
        #: adjusts its node's entry (see :meth:`node_load`).
        self.queued: list[int] = [0] * config.nodes
        #: hook the coordinator installs so mid-execution memory releases
        #: (a probe's end freeing its join's hash tables) re-evaluate
        #: admission immediately instead of waiting for a completion.
        self.on_memory_release = None
        #: structured run-event sink (see :mod:`repro.engine.runlog`);
        #: the coordinator installs a real one when recording.
        self.logger = NOOP_LOGGER
        #: cross-query machine-share broker, installed by the serving
        #: layer (:class:`repro.serving.substrate.SharedSubstrate`); None
        #: on a machine built for one query, which has nobody to steal for.
        self.broker = None
        #: live cluster membership, installed by an
        #: :class:`~repro.cluster.runtime.ElasticCluster` when the run is
        #: elastic; None on a static cluster (every node is a member).
        self.membership = None

    def close(self) -> None:
        """Release a machine built for one run, after its environment drained.

        Drops the devices' scheduling state (a fair discipline's sweep
        callback points back at its resource) and the hooks the upper
        layers installed, so the machine is freed by refcount.
        """
        for row in self.processors:
            for processor in row:
                processor.close()
        for row in self.disks:
            for disk in row:
                disk.close()
        if self.net_link is not None:
            self.net_link.close()
        self.on_memory_release = None
        self.broker = None

    # -- hardware contract --------------------------------------------------

    def check_hardware(self, config: MachineConfig,
                       params: ExecutionParams) -> None:
        """Raise unless a query planned for ``config`` under ``params``
        describes the machine this substrate already built."""
        # Elastic: contexts span the active prefix of the physical
        # footprint, so any size up to the footprint is valid.
        nodes_fit = (config.nodes == self.config.nodes
                     if self.membership is None
                     else config.nodes <= self.config.nodes)
        if (not nodes_fit or config.processors_per_node
                != self.config.processors_per_node):
            raise ValueError(
                f"context planned for a {config.describe()} machine but the "
                f"substrate was built as {self.config.describe()}"
            )
        # Per-query params may legitimately differ in seed, skew, batch
        # sizes etc., but the *hardware* models must match the devices
        # this substrate already built — a query with a different disk
        # model or CPU speed would silently mix two machines.
        mine = self.params
        for what, theirs, built in (
                ("disk parameters", params.disk, mine.disk),
                ("network parameters", params.network, mine.network),
                ("CPU speed (cost.mips)", params.cost.mips, mine.cost.mips)):
            if theirs != built:
                raise ValueError(
                    f"context {what} differ from the substrate's; the "
                    "devices are shared hardware, built from its model"
                )

    # -- context registry ---------------------------------------------------

    def register_context(self, context) -> None:
        """A query execution was launched onto this machine."""
        self.check_hardware(context.config, context.params)
        self.contexts.append(context)

    def unregister_context(self, context) -> None:
        """A query execution completed; drop it from the live set.

        Its leftover queued activations leave :attr:`queued`, and its
        queue sets stop counting into it: a stolen batch can still be
        installed into a finished context, and that is no machine load.
        """
        self.contexts.remove(context)
        queued = self.queued
        for node in context.nodes:
            for queue_set in node.queue_sets.values():
                queued[node.node_id] -= queue_set._queued
                queue_set.detach_load()

    def take_device_waits(self, key: str, metrics) -> None:
        """Set ``metrics``' ``disk_wait_time`` and ``net_wait_time`` to the
        queueing the disks and the link charged to ``key``.

        The devices account waiting per ChargeTag key, and a query's key
        is unique (per query under the serving layer, the default tag for
        a query run alone).  The totals are *taken*: a device must not
        keep a key for every query that ever queued on it, and one that
        never saw the key gives 0.0.
        """
        # Folded left to right: float ``sum()`` rounds differently from 3.12 on.
        disk_wait = 0.0
        for row in self.disks:
            for disk in row:
                disk_wait += disk.take_wait_time(key)
        metrics.disk_wait_time = disk_wait
        metrics.net_wait_time = (0.0 if self.net_link is None
                                 else self.net_link.take_wait_time(key))

    def notify_memory_released(self) -> None:
        """Engine hook: a query freed node memory mid-execution."""
        if self.on_memory_release is not None:
            self.on_memory_release()

    # -- cross-query signals ------------------------------------------------

    def node_load(self, node_id: int) -> int:
        """Queued activations on ``node_id`` summed over all live queries.

        The steal protocol's provider ranking ("acquire from the most
        loaded offering node") uses this: under multiprogramming a node's
        pressure comes from every query it hosts.  Elastic runs admit
        contexts of different sizes; a query that planned on a smaller
        prefix contributes no load on the nodes it does not span.  Kept
        incrementally in :attr:`queued`, so this is O(1).
        """
        return self.queued[node_id]

    def free_memory(self, node_id: int) -> int:
        """Unreserved bytes on ``node_id`` (live across all queries)."""
        return self.machine.node(node_id).available
