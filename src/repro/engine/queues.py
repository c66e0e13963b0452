"""Activation queues (Section 3.1).

"Each operator needs a queue to receive input activations. ... To reduce
interference, we associate one queue per thread working on an operator.
... we give each thread priority access to a distinct set of queues,
called its primary queues."

A queue belongs to one (operator, node, thread-index) cell.  Bounded
capacity implements local flow control; the *blocked* state reflects the
operator scheduling constraints ("a queue for a blocked operator is also
blocked, i.e., its activations cannot be consumed but they can still be
produced").

:class:`OperatorQueueSet` aggregates the per-node queues of one operator
and maintains the non-empty count used by O(1) thread selection and its
node's entry of the machine-wide load counter.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional, Sequence

from .activation import (TRIGGER_ACTIVATION_BYTES, Activation,
                         TriggerActivation)

__all__ = ["ActivationQueue", "OperatorQueueSet", "QueueFull"]


class QueueFull(RuntimeError):
    """Raised on :meth:`ActivationQueue.push` when the queue is at capacity."""


class ActivationQueue:
    """One bounded FIFO of activations.

    ``end_signaled`` supports operator-end detection: set when a consumer
    empties the queue after the producing operator has terminated; cleared
    if a (stolen or late) activation arrives afterwards.
    """

    __slots__ = (
        "op_id", "node_id", "thread_index", "capacity", "_items",
        "blocked", "end_signaled", "total_pushed", "total_popped",
        "bytes_queued",
    )

    def __init__(self, op_id: int, node_id: int, thread_index: int, capacity: int):
        self.op_id = op_id
        self.node_id = node_id
        self.thread_index = thread_index
        self.capacity = capacity
        self._items: deque[Activation] = deque()
        self.blocked = False
        self.end_signaled = False
        self.total_pushed = 0
        self.total_popped = 0
        self.bytes_queued = 0

    # -- state ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def key(self) -> tuple[int, int, int]:
        """(op, node, thread index) identity."""
        return (self.op_id, self.node_id, self.thread_index)

    # -- operations ------------------------------------------------------------

    def push(self, activation: Activation, force: bool = False) -> None:
        """Append an activation; raises :class:`QueueFull` at capacity.

        ``force`` admits the activation beyond capacity: used for remote
        arrivals, whose admission was already reserved by the credit
        window, and for installed stolen work.
        """
        if self.is_full and not force:
            raise QueueFull(f"queue {self.key} full ({self.capacity})")
        if activation.op_id != self.op_id:
            raise ValueError(
                f"activation for op {activation.op_id} pushed to queue of op {self.op_id}"
            )
        self._items.append(activation)
        self.total_pushed += 1
        self.bytes_queued += activation.nbytes
        self.end_signaled = False

    def seed(self, triggers: Sequence[TriggerActivation]) -> None:
        """Append a run of this operator's trigger activations, bypassing
        the bound: trigger seeding is the initial work assignment, not
        pipeline flow.  Same state as one forced :meth:`push` each."""
        self._items.extend(triggers)
        self.total_pushed += len(triggers)
        self.bytes_queued += len(triggers) * TRIGGER_ACTIVATION_BYTES
        self.end_signaled = False

    def pop(self) -> Activation:
        """Remove and return the oldest activation."""
        activation = self._items.popleft()
        self.total_popped += 1
        self.bytes_queued -= activation.nbytes
        return activation

    def peek(self) -> Optional[Activation]:
        """The oldest activation without removing it (None when empty)."""
        return self._items[0] if self._items else None

    def pop_tail_batch(self, count: int) -> list[Activation]:
        """Remove up to ``count`` activations from the tail (for stealing).

        Stealing takes the *newest* activations so the provider continues
        with the work it would have reached first anyway.
        """
        stolen = []
        for _ in range(min(count, len(self._items))):
            activation = self._items.pop()
            self.total_popped += 1
            self.bytes_queued -= activation.nbytes
            stolen.append(activation)
        stolen.reverse()
        return stolen

    def __iter__(self) -> Iterator[Activation]:
        return iter(self._items)


class OperatorQueueSet:
    """The queues of one operator on one node, with O(1) readiness checks.

    Thread selection needs "is there any consumable activation of this
    operator here?" answered cheaply; the set maintains the number of
    non-empty queues incrementally via the push/pop wrappers.
    """

    __slots__ = ("op_id", "node_id", "queues", "_non_empty", "_queued",
                 "_load", "on_push", "blocked")

    def __init__(self, op_id: int, node_id: int, thread_count: int,
                 capacity: int, load: Optional[list[int]] = None):
        self.op_id = op_id
        self.node_id = node_id
        self.queues = [
            ActivationQueue(op_id, node_id, index, capacity)
            for index in range(thread_count)
        ]
        self._non_empty = 0
        #: queued activations across the member queues, kept incrementally.
        self._queued = 0
        #: the machine's per-node load counters (``Substrate.queued``):
        #: every change to ``_queued`` is applied to ``_load[node_id]``
        #: too.  A set outside any machine, or detached from one, counts
        #: into a private list nobody reads.
        self._load = load if load is not None else [0] * (node_id + 1)
        self.blocked = False
        #: callback(queue) invoked after every successful push (wakes idle
        #: threads, re-arms end detection); installed by the node state.
        self.on_push: Optional[Callable[[ActivationQueue], None]] = None

    # -- aggregate state -------------------------------------------------------

    @property
    def non_empty_queues(self) -> int:
        return self._non_empty

    @property
    def has_work(self) -> bool:
        """True when some queue holds an activation (blocked or not)."""
        return self._non_empty > 0

    def detach_load(self) -> None:
        """Stop counting into the machine's load (the query finished)."""
        self._load = [0] * (self.node_id + 1)

    def set_blocked(self, blocked: bool) -> None:
        """Propagate the operator's blocked state to all queues."""
        self.blocked = blocked
        for queue in self.queues:
            queue.blocked = blocked

    # -- instrumented operations ----------------------------------------------

    def push(self, queue_index: int, activation: Activation,
             force: bool = False) -> None:
        """Push into one member queue, maintaining the non-empty count."""
        queue = self.queues[queue_index]
        was_empty = queue.is_empty
        queue.push(activation, force=force)
        self._queued += 1
        self._load[self.node_id] += 1
        if was_empty:
            self._non_empty += 1
        if self.on_push is not None:
            self.on_push(queue)

    def seed(self, queue_index: int,
             triggers: Sequence[TriggerActivation]) -> None:
        """Seed one member queue with a non-empty run of triggers (see
        :meth:`ActivationQueue.seed`).  The arrival hook runs once, not
        once per trigger: its effects are idempotent."""
        queue = self.queues[queue_index]
        if queue.is_empty:
            self._non_empty += 1
        queue.seed(triggers)
        self._queued += len(triggers)
        self._load[self.node_id] += len(triggers)
        if self.on_push is not None:
            self.on_push(queue)

    def pop(self, queue_index: int) -> Activation:
        """Pop from one member queue, maintaining the non-empty count."""
        queue = self.queues[queue_index]
        activation = queue.pop()
        self._queued -= 1
        self._load[self.node_id] -= 1
        if queue.is_empty:
            self._non_empty -= 1
        return activation

    def steal_from(self, queue_index: int, count: int) -> list[Activation]:
        """Remove up to ``count`` tail activations from one member queue."""
        queue = self.queues[queue_index]
        was_non_empty = not queue.is_empty
        stolen = queue.pop_tail_batch(count)
        self._queued -= len(stolen)
        self._load[self.node_id] -= len(stolen)
        if was_non_empty and queue.is_empty:
            self._non_empty -= 1
        return stolen

    def first_non_empty(self, start_index: int) -> Optional[int]:
        """Index of the first non-empty queue, scanning circularly from
        ``start_index`` (the caller's primary position, per Figure 5)."""
        n = len(self.queues)
        for offset in range(n):
            index = (start_index + offset) % n
            if not self.queues[index].is_empty:
                return index
        return None
