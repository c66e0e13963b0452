"""Tuple routing: bucket groups, output channels, flow control.

**Bucket groups.**  Each join is fragmented into many buckets (degree of
fragmentation ≫ degree of parallelism, Section 3.1).  Buckets map to
*(node, queue)* cells of the consumer operator by a fixed modulo function,
identical for the build and the probe side of a join — so the hash data a
probe activation needs is exactly what the matching build queue's
activations produced.  The engine accounts work per *group* (cell), with
Zipf bucket weights aggregated per group: high fragmentation smooths group
weights at low skew and preserves heavy tails at high skew, reproducing
the robustness argument of [Kitsuregawa90].

**Output channels.**  A producer operator's instances on one node push
tuples into one :class:`OutputChannel` per node.  The channel

* accumulates fractional per-group quotas (exact integer conservation via
  carry + final largest-remainder flush), in per-cell tables it holds
  from its first push to its flush,
* batches tuples into :class:`DataActivation` units of ``batch_size``,
* delivers locally through shared memory (bounded queues) or remotely
  through the network under a per-(producer node, consumer queue) credit
  window,
* *stalls* the producer operator on this node when deliveries back up —
  the paper's flow control ("we simply limit the size of the queues and
  use a flow control mechanism similar to [Graefe93, Pirahesh90]").

A stalled operator's activations are simply not selected by threads until
the congestion drains, which yields exactly the behaviour of the paper's
Section 3.3 example (scan threads switch to build activations when the
probe queues fill).
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import TYPE_CHECKING, Optional, Sequence

from ..catalog.skew import zipf_weights
from .activation import DataActivation, GroupId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .context import ExecutionContext

__all__ = ["Router", "consumer_cells", "OutputChannel", "ResultSink"]

#: a producer stalls on this node once one destination holds this many
#: undeliverable batches.  The paper's flow control cites [Graefe93,
#: Pirahesh90] without a bound; 2 is the value every shipped number ran with.
PENDING_STALL_LIMIT = 2

#: the stalled-cell set of every channel with no stalled cell.
_NO_CELLS: frozenset[int] = frozenset()


def consumer_cells(home: Sequence[int], threads_per_node: int) -> list[GroupId]:
    """The (node, queue-index) cells of an operator's queues.

    The bucket -> cell mapping must be identical for every producer that
    targets the operator, so it is a pure function of the operator's home.
    """
    return [(node, k) for node in sorted(home) for k in range(threads_per_node)]


class Router:
    """Per-producer distribution of output tuples over consumer cells.

    ``theta`` is the redistribution-skew factor of *this producer*
    (Section 5.2.2: "the skew factor of a producer operator does not
    impact that of the consumer operator" — each producer gets its own
    permutation of the Zipf weights over the shared bucket space).

    Read-only once built: an :class:`~repro.engine.template.
    ExecutionTemplate` shares one router between every producer over one
    consumer home and every query of a plan (``rng=None`` leaves the
    bucket weights unpermuted; at ``theta == 0`` they are all equal and a
    permutation would change nothing), and a query's permuted routers
    share its ``cells`` and ``cell_index``.
    """

    __slots__ = ("cells", "cell_index", "buckets", "weights")

    def __init__(self, cells: Sequence[GroupId], buckets: int, theta: float,
                 rng):
        if not cells:
            raise ValueError("router needs at least one destination cell")
        self.cells = tuple(cells)
        #: cell -> its position in ``cells`` (the channels' lookup table).
        self.cell_index = MappingProxyType(
            {cell: i for i, cell in enumerate(self.cells)}
        )
        self.buckets = max(buckets, len(self.cells))
        self.weights = self._cell_weights(
            zipf_weights(self.buckets, theta, rng)
        )

    def _cell_weights(self, bucket_weights: Sequence[float]) -> tuple:
        """Aggregate per-bucket weights per cell (bucket -> cell by modulo)."""
        n = len(self.cells)
        weights = [0.0] * n
        for bucket, weight in enumerate(bucket_weights):
            weights[bucket % n] += weight
        return tuple(weights)

    def with_bucket_weights(self, bucket_weights: Sequence[float]) -> "Router":
        """A router over the same cells for another bucket-weight vector
        (one query's permutation of the template's Zipf vector)."""
        router = Router.__new__(Router)
        router.cells = self.cells
        router.cell_index = self.cell_index
        router.buckets = self.buckets
        router.weights = self._cell_weights(bucket_weights)
        return router


class ResultSink:
    """Terminal consumer of the root operator: counts result tuples."""

    def __init__(self) -> None:
        self.tuples = 0

    def add(self, tuples: int) -> None:
        self.tuples += tuples


class OutputChannel:
    """One producer operator's outbound tuple path on one node.

    All state transitions are synchronous (the simulator is
    single-threaded); CPU costs incurred while a *thread* is routing are
    returned to the caller for charging, while deliveries triggered by the
    scheduler (credit arrivals, space freed) add their CPU cost to the
    message dispatch latency instead.
    """

    __slots__ = (
        "context", "node_id", "producer_op_id", "consumer_op_id", "router",
        "tuple_size", "batch_size", "_carry", "_pending", "_undelivered",
        "_remote_credits", "_cell_index", "_stalled_cells", "flushed",
        "tuples_in", "tuples_out", "activations_emitted",
    )

    def __init__(self, context: "ExecutionContext", node_id: int,
                 producer_op_id: int, consumer_op_id: Optional[int],
                 router: Optional[Router], tuple_size: int):
        self.context = context
        self.node_id = node_id
        self.producer_op_id = producer_op_id
        self.consumer_op_id = consumer_op_id
        self.router = router
        self.tuple_size = tuple_size
        self.batch_size = context.params.batch_size
        if router is not None:
            #: the per-cell fractional carries and whole tuples not yet
            #: batched, from the first push to the flush: most channels of
            #: a running query have not pushed yet or are done.
            self._carry: Optional[list[float]] = None
            self._pending: Optional[list[int]] = None
            #: the credit left per cell, from the first push on: the
            #: window for cells on other nodes, 0 for local ones.
            self._remote_credits: Optional[list[int]] = None
            #: cell index -> the batches parked for want of space or
            #: credit.  A cell has an entry only while it holds parked
            #: batches, so a running query's channels keep nothing for the
            #: many cells that never back up.
            self._undelivered: dict[int, deque[DataActivation]] = {}
            self._cell_index = router.cell_index
        #: the cells whose parked batches reached ``PENDING_STALL_LIMIT``
        #: and have not drained since.  Replaced, never mutated: most
        #: channels never stall and share the one empty set.
        self._stalled_cells: frozenset[int] = _NO_CELLS
        self.flushed = False
        # --- statistics ---------------------------------------------------
        self.tuples_in = 0
        self.tuples_out = 0
        self.activations_emitted = 0

    # -- state ------------------------------------------------------------

    @property
    def stalled(self) -> bool:
        """True when some destination has too many undeliverable batches.

        Thread selection skips the producer operator's activations on this
        node while stalled (upstream flow-control propagation).
        """
        return bool(self._stalled_cells)

    # -- producing -----------------------------------------------------------

    def push_tuples(self, tuples: int) -> int:
        """Route ``tuples`` output tuples; returns CPU instructions to charge.

        Terminal channels (root operator) count results and return 0.
        """
        if tuples < 0:
            raise ValueError(f"negative tuple count: {tuples}")
        self.tuples_in += tuples
        if self.router is None:
            self.context.result_sink.add(tuples)
            self.tuples_out += tuples
            return 0
        instructions = 0
        carry = self._carry
        if carry is None:
            cells = self.router.cells
            carry = self._carry = [0.0] * len(cells)
            self._pending = [0] * len(cells)
            window = self.context.params.credit_window
            self._remote_credits = [window if cell[0] != self.node_id else 0
                                    for cell in cells]
        pending = self._pending
        batch_size = self.batch_size
        for i, weight in enumerate(self.router.weights):
            c = carry[i] + tuples * weight
            whole = int(c)
            if whole:
                carry[i] = c - whole
                pending[i] += whole
                while pending[i] >= batch_size:
                    pending[i] -= batch_size
                    instructions += self._emit(i, batch_size)
            else:
                carry[i] = c
        return instructions

    def flush(self) -> int:
        """Emit everything still buffered (producer terminated on all nodes).

        Distributes the integer residue of the fractional carries by
        largest remainder so that ``tuples_out == tuples_in`` exactly, and
        drops the carry and pending tables: nothing pushes again.
        Returns CPU instructions (charged as dispatch latency by the
        caller, since no thread context exists at flush time).
        """
        if self.router is None or self.flushed or self._carry is None:
            self.flushed = True
            return 0
        self.flushed = True
        carry, pending = self._carry, self._pending
        self._carry = self._pending = None
        residue = int(round(sum(carry)))
        if residue:
            order = sorted(range(len(carry)), key=lambda i: -carry[i])
            for i in order[:residue]:
                pending[i] += 1
        instructions = 0
        batch_size = self.batch_size
        for i, count in enumerate(pending):
            while count >= batch_size:
                count -= batch_size
                instructions += self._emit(i, batch_size)
            if count > 0:
                instructions += self._emit(i, count)
        return instructions

    # -- delivering -----------------------------------------------------------

    def _emit(self, cell_index: int, tuples: int) -> int:
        cell = self.router.cells[cell_index]
        activation = DataActivation(
            op_id=self.consumer_op_id,
            group=cell,
            tuples=tuples,
            tuple_size=self.tuple_size,
            remote=cell[0] != self.node_id,
            src_node=self.node_id,
        )
        self.activations_emitted += 1
        self.tuples_out += tuples
        self.context.ops[self.consumer_op_id].outstanding += 1
        return self._deliver(cell_index, activation)

    def _deliver(self, cell_index: int, activation: DataActivation) -> int:
        cell = self.router.cells[cell_index]
        node_id, queue_index = cell
        if node_id == self.node_id:
            queue_set = self.context.nodes[node_id].queue_sets[self.consumer_op_id]
            if queue_set.is_full(queue_index):
                self._park(cell_index, activation)
                return 0
            queue_set.push(queue_index, activation)
            return 0
        if self._remote_credits[cell_index] <= 0:
            self._park(cell_index, activation)
            return 0
        self._remote_credits[cell_index] -= 1
        return self.context.send_data_activation(self.node_id, activation)

    def _park(self, cell_index: int, activation: DataActivation) -> None:
        pending = self._undelivered.get(cell_index)
        if pending is None:
            pending = self._undelivered[cell_index] = deque()
        pending.append(activation)
        if (len(pending) >= PENDING_STALL_LIMIT
                and cell_index not in self._stalled_cells):
            self._stalled_cells = self._stalled_cells | {cell_index}

    def _drain(self, cell_index: int) -> None:
        """Retry parked deliveries for one cell (space or credit appeared).

        A stalled cell clears only when its parked batches fully drain
        (hysteresis): clearing at ``PENDING_STALL_LIMIT - 1`` would bounce
        the producer between stalled and runnable on every consumed batch
        and thrash the node's threads with wakeups.
        """
        pending = self._undelivered.get(cell_index)
        while pending:
            cell = self.router.cells[cell_index]
            node_id, queue_index = cell
            if node_id == self.node_id:
                queue_set = self.context.nodes[node_id].queue_sets[self.consumer_op_id]
                if queue_set.is_full(queue_index):
                    return
                queue_set.push(queue_index, pending.popleft())
            else:
                if self._remote_credits[cell_index] <= 0:
                    return
                self._remote_credits[cell_index] -= 1
                activation = pending.popleft()
                # Scheduler-context send: the CPU cost is already folded
                # into the message dispatch latency.
                self.context.send_data_activation(self.node_id, activation)
        # Drained: the next park makes a new deque.
        self._undelivered.pop(cell_index, None)
        if cell_index in self._stalled_cells:
            self._stalled_cells = self._stalled_cells - {cell_index} or _NO_CELLS
            if not self._stalled_cells:
                self.context.on_channel_unstalled(self)

    def on_local_space(self, queue_index: int) -> None:
        """A local destination queue freed a slot: retry parked batches."""
        if self.router is None:
            return
        cell_index = self._cell_index.get((self.node_id, queue_index))
        if cell_index in self._undelivered:
            self._drain(cell_index)

    def on_credit(self, cell: GroupId, credits: int) -> None:
        """Credits returned by the consumer node: retry parked batches."""
        if self.router is None:
            return
        cell_index = self._cell_index.get(cell)
        if cell_index is None:
            return
        self._remote_credits[cell_index] += credits
        if cell_index in self._undelivered:
            self._drain(cell_index)
