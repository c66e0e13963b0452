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
  carry + final largest-remainder flush),
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
    ExecutionTemplate` shares one router between every query of a plan
    (``rng=None`` leaves the bucket weights unpermuted; at ``theta == 0``
    they are all equal and a permutation would change nothing).
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

    @property
    def max_cell_share(self) -> float:
        """Largest single-cell share (a skew diagnostic used in tests)."""
        return max(self.weights)


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

    def __init__(self, context: "ExecutionContext", node_id: int,
                 producer_op_id: int, consumer_op_id: Optional[int],
                 router: Optional[Router], tuple_size: int,
                 remote_credits: Sequence[int] = ()):
        """``remote_credits`` is the opening credit per cell of ``router``
        (the window for cells on other nodes, 0 for local ones)."""
        self.context = context
        self.node_id = node_id
        self.producer_op_id = producer_op_id
        self.consumer_op_id = consumer_op_id
        self.router = router
        self.tuple_size = tuple_size
        params = context.params
        self.batch_size = params.batch_size
        self.stall_limit = params.pending_stall_limit
        if router is not None:
            n = len(router.cells)
            self._carry = [0.0] * n
            self._pending = [0] * n
            #: per cell, the batches parked for want of space or credit.
            #: A cell has a deque only while it holds parked batches: a
            #: drained cell keeps none, so a running query's channels hold
            #: no empty deques for the many cells that never back up.
            self._undelivered: list[Optional[deque[DataActivation]]] = (
                [None] * n)
            self._remote_credits = list(remote_credits)
            self._cell_index = router.cell_index
            self._cell_stalled = [False] * n
        self._stalled_cells = 0
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
        return self._stalled_cells > 0

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
        largest remainder so that ``tuples_out == tuples_in`` exactly.
        Returns CPU instructions (charged as dispatch latency by the
        caller, since no thread context exists at flush time).
        """
        if self.router is None or self.flushed:
            self.flushed = True
            return 0
        self.flushed = True
        residue = int(round(sum(self._carry)))
        if residue:
            order = sorted(range(len(self._carry)), key=lambda i: -self._carry[i])
            for i in order[:residue]:
                self._pending[i] += 1
        self._carry = [0.0] * len(self._carry)
        instructions = 0
        for i in range(len(self._pending)):
            while self._pending[i] >= self.batch_size:
                self._pending[i] -= self.batch_size
                instructions += self._emit(i, self.batch_size)
            if self._pending[i] > 0:
                instructions += self._emit(i, self._pending[i])
                self._pending[i] = 0
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
            if queue_set.queues[queue_index].is_full:
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
        pending = self._undelivered[cell_index]
        if pending is None:
            pending = self._undelivered[cell_index] = deque()
        pending.append(activation)
        if not self._cell_stalled[cell_index] and len(pending) >= self.stall_limit:
            self._cell_stalled[cell_index] = True
            self._stalled_cells += 1

    def _drain(self, cell_index: int) -> None:
        """Retry parked deliveries for one cell (space or credit appeared).

        A stalled cell clears only when its parked batches fully drain
        (hysteresis): clearing at ``stall_limit - 1`` would bounce the
        producer between stalled and runnable on every consumed batch and
        thrash the node's threads with wakeups.
        """
        pending = self._undelivered[cell_index]
        while pending:
            cell = self.router.cells[cell_index]
            node_id, queue_index = cell
            if node_id == self.node_id:
                queue_set = self.context.nodes[node_id].queue_sets[self.consumer_op_id]
                if queue_set.queues[queue_index].is_full:
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
        self._undelivered[cell_index] = None
        if self._cell_stalled[cell_index]:
            self._cell_stalled[cell_index] = False
            self._stalled_cells -= 1
            if self._stalled_cells == 0:
                self.context.on_channel_unstalled(self)

    def on_local_space(self, queue_index: int) -> None:
        """A local destination queue freed a slot: retry parked batches."""
        if self.router is None:
            return
        cell_index = self._cell_index.get((self.node_id, queue_index))
        if cell_index is not None and self._undelivered[cell_index]:
            self._drain(cell_index)

    def on_credit(self, cell: GroupId, credits: int) -> None:
        """Credits returned by the consumer node: retry parked batches."""
        if self.router is None:
            return
        cell_index = self._cell_index.get(cell)
        if cell_index is None:
            return
        self._remote_credits[cell_index] += credits
        if self._undelivered[cell_index]:
            self._drain(cell_index)

    # -- diagnostics -------------------------------------------------------------

    def parked_activations(self) -> int:
        """Total undeliverable batches currently parked (tests/debug)."""
        if self.router is None:
            return 0
        return sum(len(d) for d in self._undelivered if d is not None)
