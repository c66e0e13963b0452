"""Activation queues (Section 3.1).

"Each operator needs a queue to receive input activations. ... To reduce
interference, we associate one queue per thread working on an operator.
... we give each thread priority access to a distinct set of queues,
called its primary queues."

:class:`OperatorQueueSet` holds the k queues of one operator on one node:
queue ``i`` is the ``i``-th slot of the set's per-index lists, addressed
everywhere as ``(queue_set, i)``.  Most of a query's operator x thread
queues never receive work, so a queue is no object of its own.  Bounded
capacity implements local flow control; whether an operator is *blocked*
("a queue for a blocked operator is also blocked, i.e., its activations
cannot be consumed but they can still be produced") is its runtime's
state, which thread selection reads.

A queue holds storage only while it holds work.  A queue seeded with a
run of triggers (Section 4's initial work assignment, read once from
front to back) keeps the run's tuple and a cursor rather than a copy.

The set maintains the non-empty count used by O(1) thread selection and
its node's entry of the machine-wide load counter.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Optional, Sequence

from .activation import (TRIGGER_ACTIVATION_BYTES, Activation,
                         TriggerActivation)

__all__ = ["OperatorQueueSet", "QueueFull"]

#: the storage of every empty queue.  Most of a query's operators x
#: threads queues never receive work or hold it only briefly, so a queue
#: owns storage only while it holds activations.
_EMPTY: tuple = ()


class QueueFull(RuntimeError):
    """Raised on :meth:`OperatorQueueSet.push` when the queue is at capacity."""


class OperatorQueueSet:
    """The bounded FIFO queues of one operator on one node.

    Queue ``i`` is three slots.  ``items[i]`` is its storage, in one of
    three forms, truthy exactly while the queue holds work: an empty
    queue shares one empty tuple; a queue whose only arrival is one
    seeded run keeps that run's tuple — the share the template or
    :func:`~repro.engine.template.queue_shares` built, not a copy — and
    ``heads[i]`` counts the triggers already popped from its front; any
    other queue owns a deque: the first push allocates it (copying what
    is left of a seeded run, as a seed onto a non-empty queue or a steal
    does too), and the pop that empties the queue drops it (the rule
    ``OutputChannel._undelivered`` follows).  ``bytes_queued[i]`` is the
    footprint of what it holds.
    """

    __slots__ = ("op_id", "node_id", "capacity", "items", "heads",
                 "bytes_queued", "_non_empty", "_queued", "_load", "on_push")

    def __init__(self, op_id: int, node_id: int, thread_count: int,
                 capacity: int, load: Optional[list[int]] = None):
        self.op_id = op_id
        self.node_id = node_id
        self.capacity = capacity
        self.items: list[deque[Activation] | tuple] = [_EMPTY] * thread_count
        #: per queue: triggers popped from the front of a seeded run; 0
        #: for any other form.
        self.heads = [0] * thread_count
        self.bytes_queued = [0] * thread_count
        self._non_empty = 0
        #: queued activations across the member queues, kept incrementally.
        self._queued = 0
        #: the machine's per-node load counters (``Substrate.queued``):
        #: every change to ``_queued`` is applied to ``_load[node_id]``
        #: too.  A set outside any machine, or detached from one, counts
        #: into a private list nobody reads.
        self._load = load if load is not None else [0] * (node_id + 1)
        #: callback(queue set, queue index) invoked after every successful
        #: push (wakes idle threads, re-arms end detection); installed by
        #: the node state.
        self.on_push: Optional[Callable[[OperatorQueueSet, int], None]] = None

    # -- state -----------------------------------------------------------------

    @property
    def has_work(self) -> bool:
        """True when some queue holds an activation (blocked or not)."""
        return self._non_empty > 0

    def size(self, index: int) -> int:
        """Activations queue ``index`` holds."""
        return len(self.items[index]) - self.heads[index]

    def is_full(self, index: int) -> bool:
        return len(self.items[index]) - self.heads[index] >= self.capacity

    def peek(self, index: int) -> Optional[Activation]:
        """The oldest activation of queue ``index`` (None when empty)."""
        items = self.items[index]
        return items[self.heads[index]] if items else None

    def first_non_empty(self, start_index: int) -> Optional[int]:
        """Index of the first non-empty queue, scanning circularly from
        ``start_index`` (the caller's primary position, per Figure 5)."""
        items = self.items
        n = len(items)
        for offset in range(n):
            index = (start_index + offset) % n
            if items[index]:
                return index
        return None

    def detach_load(self) -> None:
        """Stop counting into the machine's load (the query finished)."""
        self._load = [0] * (self.node_id + 1)

    def _own_deque(self, index: int) -> deque[Activation]:
        """Move what is left of a seeded run into a deque of the queue's own."""
        items = self.items[index] = deque(
            islice(self.items[index], self.heads[index], None))
        self.heads[index] = 0
        return items

    # -- operations ------------------------------------------------------------

    def push(self, index: int, activation: Activation,
             force: bool = False) -> None:
        """Append an activation to queue ``index``; raises
        :class:`QueueFull` at capacity.

        ``force`` admits the activation beyond capacity: used for remote
        arrivals, whose admission was already reserved by the credit
        window, and for installed stolen work.
        """
        if not force and self.is_full(index):
            raise QueueFull(f"queue {(self.op_id, self.node_id, index)} "
                            f"full ({self.capacity})")
        if activation.op_id != self.op_id:
            raise ValueError(
                f"activation for op {activation.op_id} pushed to queue of op {self.op_id}"
            )
        items = self.items[index]
        if not items:
            items = self.items[index] = deque()
            self._non_empty += 1
        elif items.__class__ is tuple:
            items = self._own_deque(index)
        items.append(activation)
        self.bytes_queued[index] += activation.nbytes
        self._queued += 1
        self._load[self.node_id] += 1
        if self.on_push is not None:
            self.on_push(self, index)

    def seed(self, index: int, triggers: Sequence[TriggerActivation]) -> None:
        """Append a non-empty run of this operator's trigger activations
        to queue ``index``, bypassing the bound: trigger seeding is the
        initial work assignment, not pipeline flow.  Same contents as one
        forced :meth:`push` each; an empty queue keeps the run itself (a
        tuple is not copied).  The arrival hook runs once, not once per
        trigger: its effects are idempotent."""
        items = self.items[index]
        if items:
            if items.__class__ is tuple:
                items = self._own_deque(index)
            items.extend(triggers)
        else:
            self.items[index] = tuple(triggers)
            self._non_empty += 1
        self.bytes_queued[index] += len(triggers) * TRIGGER_ACTIVATION_BYTES
        self._queued += len(triggers)
        self._load[self.node_id] += len(triggers)
        if self.on_push is not None:
            self.on_push(self, index)

    def pop(self, index: int) -> Activation:
        """Remove and return the oldest activation of queue ``index``."""
        items = self.items[index]
        if not items:
            raise IndexError(
                f"pop from empty queue {(self.op_id, self.node_id, index)}")
        if items.__class__ is tuple:
            head = self.heads[index]
            activation = items[head]
            head += 1
            if head == len(items):
                self.items[index] = _EMPTY
                head = 0
                self._non_empty -= 1
            self.heads[index] = head
        else:
            activation = items.popleft()
            if not items:
                self.items[index] = _EMPTY
                self._non_empty -= 1
        self.bytes_queued[index] -= activation.nbytes
        self._queued -= 1
        self._load[self.node_id] -= 1
        return activation

    def steal_from(self, index: int, count: int) -> list[Activation]:
        """Remove up to ``count`` activations from the tail of queue
        ``index``, oldest first.

        Stealing takes the *newest* activations so the provider continues
        with the work it would have reached first anyway.
        """
        items = self.items[index]
        if not items or count <= 0:
            return []
        if items.__class__ is tuple:
            items = self._own_deque(index)
        stolen = [items.pop() for _ in range(min(count, len(items)))]
        stolen.reverse()
        self.bytes_queued[index] -= sum(a.nbytes for a in stolen)
        if not items:
            self.items[index] = _EMPTY
            self._non_empty -= 1
        self._queued -= len(stolen)
        self._load[self.node_id] -= len(stolen)
        return stolen
