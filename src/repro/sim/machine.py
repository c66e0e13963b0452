"""Hierarchical machine model: SM-nodes, processors, memory.

Mirrors Figure 1 of the paper: a shared-nothing collection of shared-memory
multiprocessor nodes (SM-nodes).  Each SM-node has several processors, one
disk per processor (the paper's simulated-disk configuration), and a memory
shared by all its processors.  Inter-node communication goes through
:mod:`repro.sim.network`; intra-node communication is free shared memory.

All sizes are in bytes, all rates in bytes/second, CPU speed in
instructions/second.  The defaults reproduce the paper's Section 5.1.1
configuration: 40 MIPS processors with a 32 MB local memory each (the KSR1
local cache), aggregated per node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Environment, Resource, SchedulingDiscipline

__all__ = [
    "MachineConfig",
    "SMNode",
    "Machine",
    "Processor",
    "make_processors",
    "MemoryExhausted",
    "KB",
    "MB",
    "PAGE_SIZE",
]

KB = 1024
MB = 1024 * KB

#: Disk/page unit used throughout (the paper's message and I/O unit is 8 KB).
PAGE_SIZE = 8 * KB


class MemoryExhausted(RuntimeError):
    """Raised when a node's memory reservation cannot be satisfied.

    The paper assumes each pipeline chain fits in memory (Section 2.2); this
    exception surfaces configurations that violate the assumption instead of
    silently producing meaningless timings.
    """


@dataclass(frozen=True)
class MachineConfig:
    """Static description of a hierarchical machine.

    Parameters mirror Section 5.1.1 of the paper:

    - ``mips``: per-processor speed, 40 MIPS on the KSR1;
    - ``memory_per_processor``: 32 MB local cache per KSR1 processor,
      pooled into the node's shared memory;
    - one disk per processor (see :class:`repro.sim.disk.Disk` for the disk
      service parameters).
    """

    nodes: int = 1
    processors_per_node: int = 8
    mips: float = 40e6
    memory_per_processor: int = 32 * MB
    page_size: int = PAGE_SIZE

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"need at least one node, got {self.nodes}")
        if self.processors_per_node < 1:
            raise ValueError(
                f"need at least one processor per node, got {self.processors_per_node}"
            )
        if self.mips <= 0:
            raise ValueError(f"mips must be positive, got {self.mips}")

    @property
    def total_processors(self) -> int:
        """Processor count across all SM-nodes."""
        return self.nodes * self.processors_per_node

    @property
    def memory_per_node(self) -> int:
        """Shared memory available on one SM-node."""
        return self.memory_per_processor * self.processors_per_node

    def instructions_time(self, instructions: float) -> float:
        """Virtual seconds to execute ``instructions`` on one processor."""
        return instructions / self.mips

    def describe(self) -> str:
        """Human-readable configuration label, e.g. ``4x8``."""
        return f"{self.nodes}x{self.processors_per_node}"


class SMNode:
    """Runtime state of one shared-memory node: a memory pool.

    Memory accounting backs two behaviours from the paper:

    * global load balancing condition (i): "the requester must be able to
      store in memory the activations and corresponding data";
    * flow control: queues are bounded so intermediate results cannot
      materialize wholesale (Section 3.1).
    """

    def __init__(self, node_id: int, config: MachineConfig):
        self.node_id = node_id
        self.config = config
        self.capacity = config.memory_per_node
        self.used = 0
        self.high_watermark = 0

    @property
    def available(self) -> int:
        """Bytes currently unreserved on this node."""
        return self.capacity - self.used

    def can_reserve(self, nbytes: int) -> bool:
        """Whether ``nbytes`` more bytes fit on this node."""
        return self.used + nbytes <= self.capacity

    def reserve(self, nbytes: int) -> None:
        """Charge ``nbytes`` against the node's memory.

        Raises :class:`MemoryExhausted` when the pool is over-committed.
        """
        if nbytes < 0:
            raise ValueError(f"cannot reserve negative bytes: {nbytes}")
        if not self.can_reserve(nbytes):
            raise MemoryExhausted(
                f"node {self.node_id}: reserve {nbytes} B exceeds capacity "
                f"({self.used}/{self.capacity} B used)"
            )
        self.used += nbytes
        self.high_watermark = max(self.high_watermark, self.used)

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the pool."""
        if nbytes < 0:
            raise ValueError(f"cannot release negative bytes: {nbytes}")
        if nbytes > self.used:
            raise ValueError(
                f"node {self.node_id}: releasing {nbytes} B but only "
                f"{self.used} B reserved"
            )
        self.used -= nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SMNode {self.node_id} mem={self.used}/{self.capacity}>"


class Processor(Resource):
    """One physical processor, shared by the threads of concurrent queries.

    A capacity-1 :class:`~repro.sim.core.Resource`: every CPU charge of an
    execution thread holds the processor for its duration, so threads of
    different queries mapped to the same ``(node, index)`` time-share it
    at charge granularity — the paper's Section 3.1 model extended to
    multiprogramming (one thread per processor *per query*, multiplexed
    by the node OS).  The service order among concurrent queries' charges
    is the processor's :class:`~repro.sim.core.SchedulingDiscipline`:
    FIFO by default, weighted fair sharing or priority preemption when
    the serving layer runs service classes.

    With a single query there is exactly one thread per processor and the
    resource is never contended, so execution is event-for-event identical
    to charging plain timeouts (see :class:`Resource`).
    """

    __slots__ = ("node_id", "index")

    def __init__(self, env: Environment, node_id: int, index: int,
                 discipline: SchedulingDiscipline | None = None):
        super().__init__(env, capacity=1, name=f"cpu:n{node_id}.{index}",
                         discipline=discipline)
        self.node_id = node_id
        self.index = index


def make_processors(env: Environment, config: MachineConfig,
                    discipline: SchedulingDiscipline | None = None
                    ) -> list[list[Processor]]:
    """One :class:`Processor` per (node, index) of ``config``.

    All processors of a machine share one ``discipline`` instance (the
    disciplines are stateless; per-processor state lives on the resource).
    """
    return [
        [Processor(env, node_id, index, discipline)
         for index in range(config.processors_per_node)]
        for node_id in range(config.nodes)
    ]


def make_disks(env: Environment, disk_params, config: MachineConfig,
               discipline: SchedulingDiscipline | None = None):
    """One disk per (node, processor) of ``config`` (the paper's layout).

    All disks of a machine share one ``discipline`` instance, exactly
    like the processors (``None`` keeps the analytic FIFO arm, the
    paper's model).
    """
    from .disk import Disk  # late import: disk depends only on core
    return [
        [Disk(env, disk_params, name=f"d{node_id}.{d}", discipline=discipline)
         for d in range(config.processors_per_node)]
        for node_id in range(config.nodes)
    ]


class Machine:
    """A configured machine instance: one :class:`SMNode` per node."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.nodes = [SMNode(i, config) for i in range(config.nodes)]

    def node(self, node_id: int) -> SMNode:
        """The :class:`SMNode` with identifier ``node_id``."""
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)
