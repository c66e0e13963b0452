"""Execution-model parameters.

Groups every knob of the engine in one frozen dataclass so experiments can
describe their configuration declaratively and ablation benches can sweep
individual parameters.

Granularity (Section 3.1 of the paper): "we reduce the granularity of
trigger activations by replacing a bucket by one or more pages of a bucket,
and increase the granularity of data activations by buffering" —
``pages_per_trigger`` and ``batch_size`` respectively.

Flow control: local activation queues are bounded (``queue_capacity``);
remote producers additionally run a credit window (``credit_window``)
because a remote producer cannot observe the consumer queue directly.  The
paper cites [Graefe93, Pirahesh90] without details; the credit scheme is
our documented implementation choice (ARCHITECTURE.md, "Choices the
paper leaves open").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..catalog.skew import SkewSpec
from ..optimizer.cost import CostParams
from ..sim.core import discipline_names
from ..sim.disk import DiskParams
from ..sim.network import NetworkParams

__all__ = ["ExecutionParams"]


@dataclass(frozen=True)
class ExecutionParams:
    """All engine knobs, with the defaults used by the experiments."""

    # --- granularity of parallelism (Section 3.1) ------------------------
    batch_size: int = 64
    pages_per_trigger: int = 4
    #: buckets per join = fragmentation_factor x processors of the join's
    #: home ("a degree of fragmentation much higher than the degree of
    #: parallelism" [Kitsuregawa90, DeWitt92]).
    fragmentation_factor: int = 8

    # --- flow control ------------------------------------------------------
    queue_capacity: int = 16
    #: per-(remote producer node, consumer queue) credit window.
    credit_window: int = 4
    #: a producer operator stalls on this node when any destination has
    #: this many undeliverable activations pending.
    pending_stall_limit: int = 2

    # --- suspension ("procedure call" nesting, Section 3.1) ----------------
    max_suspension_depth: int = 8
    #: outstanding asynchronous reads one thread keeps per scan (the
    #: paper's I/O multiplexing: "the use of asynchronous I/O (for
    #: multiplexing disk accesses with data processing)").
    io_multiplex_window: int = 4

    # --- global load balancing (Sections 3.2 and 4) ------------------------
    enable_global_lb: bool = True
    steal_fraction: float = 0.5
    #: condition (ii): enough work to amortize the acquisition.
    min_steal_activations: int = 2
    #: Section 4 optimization: remember stolen queues whose hash data was
    #: already copied and steal from them again for free.
    stolen_queue_cache: bool = True
    #: minimum virtual seconds between steal rounds of one scope on one
    #: node (keeps a starving node from flooding the network while the
    #: cluster drains a hot spot).
    steal_cooldown: float = 2e-3

    # --- machine scheduling (the pluggable discipline layer) ----------------
    #: how concurrent queries' CPU charges share a processor: ``"fifo"``
    #: (the paper's model, bit-identical single-query behaviour),
    #: ``"fair"`` (weighted fair sharing by service-class weight) or
    #: ``"priority"`` (priority-preemptive by service-class priority).
    cpu_discipline: str = "fifo"
    #: how concurrent queries' read requests share a disk arm — the same
    #: registry as ``cpu_discipline``.  ``"fifo"`` keeps the paper's
    #: analytic busy-period disk (bit-identical figure outputs, request
    #: tags inert); ``"fair"`` splits a contended arm by service-class
    #: weight; ``"priority"`` serves strictly by class priority and
    #: preempts an in-flight lower-priority transfer, so an interactive
    #: class stops queueing behind batch table scans at the disk.
    disk_discipline: str = "fifo"
    #: how messages share the interconnect — the same registry again.
    #: Only meaningful when ``network.bandwidth`` is finite (the paper's
    #: interconnect is infinite, so messages never queue and the
    #: discipline is moot); with finite bandwidth, messages serialize
    #: over the shared link in discipline order, tagged by their sending
    #: query's service class.
    net_discipline: str = "fifo"
    #: cross-query machine-share stealing: a node starving under *any*
    #: query may trigger the steal protocol of co-resident queries, so
    #: their backlog moves onto the idle node (serving layer only; a
    #: single-query run has no co-resident context to steal from).
    cross_query_steal: bool = True
    #: the broker only intervenes when the most loaded node queues more
    #: than ``cross_steal_imbalance`` times the starving node's load.
    cross_steal_imbalance: float = 2.0
    #: which co-resident queries the broker triggers on an imbalance:
    #:
    #: * ``"all"`` (default): every live co-resident query runs its
    #:   steal protocol from the starving node — the original shotgun;
    #: * ``"best"``: a benefit/overhead estimate (queued backlog on the
    #:   hot nodes vs hash-table bytes a steal would ship) ranks the
    #:   candidates and only the single best query moves, keeping the
    #:   intervention's network cost proportional to its benefit.
    cross_steal_policy: str = "all"

    # --- local scheduling costs --------------------------------------------
    #: thread <-> local scheduler signalling (operating-system signals).
    signal_instructions: int = 2000

    # --- skew (Section 5.2.2) ----------------------------------------------
    skew: SkewSpec = field(default_factory=SkewSpec.none)

    # --- substrate parameters ----------------------------------------------
    cost: CostParams = field(default_factory=CostParams)
    disk: DiskParams = field(default_factory=DiskParams)
    network: NetworkParams = field(default_factory=NetworkParams)

    # --- determinism ---------------------------------------------------------
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.pages_per_trigger < 1:
            raise ValueError(
                f"pages_per_trigger must be >= 1, got {self.pages_per_trigger}"
            )
        if self.fragmentation_factor < 1:
            raise ValueError(
                f"fragmentation_factor must be >= 1, got {self.fragmentation_factor}"
            )
        if self.queue_capacity < 2:
            raise ValueError(f"queue_capacity must be >= 2, got {self.queue_capacity}")
        if self.credit_window < 1:
            raise ValueError(f"credit_window must be >= 1, got {self.credit_window}")
        if self.pending_stall_limit < 1:
            raise ValueError(
                f"pending_stall_limit must be >= 1, got {self.pending_stall_limit}"
            )
        if not 0.0 < self.steal_fraction <= 1.0:
            raise ValueError(
                f"steal_fraction must be in (0, 1], got {self.steal_fraction}"
            )
        if self.min_steal_activations < 1:
            raise ValueError(
                f"min_steal_activations must be >= 1, got {self.min_steal_activations}"
            )
        if self.max_suspension_depth < 1:
            raise ValueError(
                f"max_suspension_depth must be >= 1, got {self.max_suspension_depth}"
            )
        if self.io_multiplex_window < 1:
            raise ValueError(
                f"io_multiplex_window must be >= 1, got {self.io_multiplex_window}"
            )
        for field_name in ("cpu_discipline", "disk_discipline",
                           "net_discipline"):
            value = getattr(self, field_name)
            if value not in discipline_names():
                raise ValueError(
                    f"unknown {field_name} {value!r}; known: "
                    f"{discipline_names()}"
                )
        if self.cross_steal_imbalance < 1.0:
            raise ValueError(
                f"cross_steal_imbalance must be >= 1, got "
                f"{self.cross_steal_imbalance}"
            )
        if self.cross_steal_policy not in ("all", "best"):
            raise ValueError(
                f"unknown cross_steal_policy {self.cross_steal_policy!r}; "
                "known: ['all', 'best']"
            )

    def with_seed(self, seed: int) -> "ExecutionParams":
        """A copy that differs in ``seed`` only (the per-query params).

        Skips ``__post_init__``: the other fields were validated when
        ``self`` was built, and ``seed`` has no validation to skip.
        """
        clone = object.__new__(ExecutionParams)
        clone.__dict__.update(self.__dict__)
        clone.__dict__["seed"] = seed
        return clone

    def buckets_for_home(self, home_processors: int) -> int:
        """Degree of fragmentation for a join executed on ``home_processors``."""
        return max(64, self.fragmentation_factor * home_processors)
