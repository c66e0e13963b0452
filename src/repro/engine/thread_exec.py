"""Execution threads: one per processor, any activation of the SM-node.

Section 3.1: "we choose to allocate only one thread per processor per
query.  This is made possible by the fact that any thread can execute any
operator assigned to its SM-node. ... since there is only one thread per
processor for the entire query, we do not have the traditional start-up
overhead."

The two defining mechanisms implemented here:

* **activation selection** (Section 4, Figure 5): a thread first consumes
  its *primary* queues (the queues carrying its own index across all
  operators), then any other consumable queue of its node — paying the
  foreign-queue interference penalty;
* **procedure-call suspension** (Sections 3.1 and 4): during a blocking
  action (asynchronous I/O, flow-controlled output) the thread *calls*
  into processing another activation instead of blocking in the operating
  system: ``yield from self._execute(...)`` nests the suspended context on
  the Python generator stack, exactly the cheap context save the paper
  describes.  ``ProcessAnotherActivation`` never consumes the same
  operator (avoiding immediate re-blocking) and nesting is bounded by
  ``MAX_SUSPENSION_DEPTH``.

Every cost component (activation overhead, per-tuple work, output routing,
async-I/O init) is its own kernel charge — one
:class:`~repro.sim.core.Resource` event each.
"""

from __future__ import annotations

from typing import Optional

from ..optimizer.operator_tree import OpKind
from ..sim.core import DEFAULT_TAG
from .activation import Activation, DataActivation, TriggerActivation
from .context import ExecutionContext, NodeState
from .metrics import ThreadTime
from .opstate import OperatorRuntime, batch_output

__all__ = ["ExecutionThread"]

#: procedure-call nesting bound: Section 3.1 names suspension without a
#: bound; 8 is the value every shipped figure and ledger number ran with.
MAX_SUSPENSION_DEPTH = 8
#: asynchronous reads one thread keeps in flight per scan: Section 4 names
#: the I/O multiplexing without a window; 4 is the shipped value.
IO_MULTIPLEX_WINDOW = 4


class ExecutionThread(ThreadTime):
    """One simulated processor's worth of query execution."""

    def __init__(self, context: ExecutionContext, node: NodeState, index: int):
        super().__init__()
        self.context = context
        self.node = node
        self.index = index
        #: the physical processor backing this thread; threads of other
        #: concurrent queries with the same (node, index) share it.
        self.processor = context.processors[node.node_id][index]
        # ``_charge``'s invariants, bound once: the clock, the CPU speed,
        # the processor's discipline entry point and the resolved tag.
        self._env = context.env
        self._mips = context.substrate.config.mips
        self._use = self.processor._use
        self._tag = (DEFAULT_TAG if context.charge_tag is None
                     else context.charge_tag)
        #: FP restriction: the operator ids this thread may process
        #: (None = unrestricted, the DP default).
        self.assigned_ops: Optional[set[int]] = None
        self.wake_event = None
        #: when the current park began: ``no_work`` runs from here to
        #: :meth:`wake`.
        self.parked_at = 0.0
        self.process = None
        #: signal accounting: the thread pays the scheduler-signal cost
        #: when it *becomes* idle, not on every fruitless wakeup.
        self._worked_since_idle = True

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Launch the thread's main loop as a simulation process."""
        self.process = self.context.spawn(
            self.run(), f"thread:n{self.node.node_id}t{self.index}"
        )

    def run(self):
        """Main loop: select an activation, process it, or go idle."""
        context = self.context
        while not context.done:
            picked = self._select()
            if picked is None:
                yield from self._go_idle()
                continue
            yield from self._execute(picked, depth=0)

    # -- CPU accounting ------------------------------------------------------------

    def _charge(self, instructions: float):
        """Consume CPU: hold the processor, advance time, fill ``cpu``.

        The charge acquires the thread's physical processor for its
        duration; with one query per machine the processor is always free
        and this degenerates to a plain timeout.  Under multiprogramming,
        time spent queued behind another query's charge fills
        ``cpu_contention`` and the query's live ``cpu_contention_time``.
        """
        seconds = instructions / self._mips
        self.cpu += seconds
        env = self._env
        started = env._now
        yield from self._use(self.processor, seconds, self._tag)
        waited = env._now - started - seconds
        if waited > 1e-12:
            self.cpu_contention += waited
            # Read through the context: ``collect`` swaps the metrics object.
            self.context.metrics.cpu_contention_time += waited

    # -- activation selection (Figure 5) ----------------------------------------------

    def _select(self, exclude_op: Optional[int] = None
                ) -> Optional[tuple[Activation, int]]:
        """Pick and pop the next activation, or None if nothing is consumable;
        returns it with the index of the queue it came from.

        Pass 1 scans the thread's primary queues (its own index) across the
        node's operators; pass 2 takes any consumable queue, starting just
        past the primary position (the circular-list walk of Figure 5).
        """
        node = self.node
        selection = node.selection
        assigned = self.assigned_ops
        index = self.index
        # The checks are inlined from ``context.is_op_selectable`` over the
        # node's prebuilt selection table, with the cheapest, most
        # selective guard first (the incrementally maintained non-empty
        # count): selection runs once per processed activation, the
        # engine's hottest non-kernel loop.
        # Pass 1: primary queues.
        for op_id, queue_set, runtime, channel in selection:
            if not queue_set._non_empty or op_id == exclude_op:
                continue
            if assigned is not None and op_id not in assigned:
                continue
            if runtime.terminated or runtime.blocked or runtime.suspended:
                continue
            if channel is not None and channel._stalled_cells:
                continue
            if queue_set.items[index]:
                activation = queue_set.pop(index)
                node.on_queue_pop(queue_set, index, activation)
                return activation, index
        # Pass 2: any queue of the node.
        for op_id, queue_set, runtime, channel in selection:
            if not queue_set._non_empty or op_id == exclude_op:
                continue
            if assigned is not None and op_id not in assigned:
                continue
            if runtime.terminated or runtime.blocked or runtime.suspended:
                continue
            if channel is not None and channel._stalled_cells:
                continue
            queue_index = queue_set.first_non_empty(index + 1)
            if queue_index is not None:
                activation = queue_set.pop(queue_index)
                node.on_queue_pop(queue_set, queue_index, activation)
                return activation, queue_index
        return None

    def _select_trigger_of(self, runtime: OperatorRuntime,
                           busy_disks: Optional[set[int]] = None,
                           ) -> Optional[tuple[Activation, int]]:
        """Pop another trigger of the same scan (I/O-wait fallback), with
        the index of the queue it came from.

        ``busy_disks`` holds disk ids this thread already has reads in
        flight on; triggers targeting *other* disks are preferred so the
        absorbed window spreads over the node's disks instead of queueing
        behind one arm.
        """
        node = self.node
        if not self.context.is_op_selectable(node, runtime):
            return None
        queue_set = node.queue_sets[runtime.op_id]
        n = len(queue_set.items)
        fallback: Optional[int] = None
        for offset in range(n):
            queue_index = (self.index + offset) % n
            head = queue_set.peek(queue_index)
            if head is None:
                continue
            if busy_disks and getattr(head, "disk_id", None) in busy_disks:
                if fallback is None:
                    fallback = queue_index
                continue
            fallback = queue_index
            break
        if fallback is None:
            return None
        activation = queue_set.pop(fallback)
        node.on_queue_pop(queue_set, fallback, activation)
        return activation, fallback

    # -- idling --------------------------------------------------------------------------

    def _go_idle(self):
        """Signal the scheduler, re-check, then sleep until woken.

        The signal costs CPU (operating-system signal to the scheduler
        thread, Section 4) on the transition into idleness; a woken thread
        that finds nothing goes straight back to sleep without re-paying.
        After paying the signal the thread re-checks for work that may
        have arrived meanwhile.  The sleep is ``no_work``, closed by
        whoever wakes the thread (:meth:`wake`).
        """
        context = self.context
        if self._worked_since_idle:
            self._worked_since_idle = False
            yield from self._charge(context.params.signal_instructions)
            picked = self._select()
            if picked is not None:
                yield from self._execute(picked, depth=0)
                return
        if context.done:
            return
        self.node.scheduler.on_thread_idle(self)
        self.parked_at = self._env._now
        yield self.node.register_idle(self)

    def wake(self) -> None:
        """End the park: fill ``no_work`` up to now, the instant the
        thread resumes.  Closing it here, not on resumption, lets a
        collect on ``finished`` (which runs before the threads ``finish``
        woke) read their whole park."""
        event, self.wake_event = self.wake_event, None
        self.no_work += self._env._now - self.parked_at
        if event is not None and not event.triggered:
            event.succeed()

    # -- processing -----------------------------------------------------------------------

    def _execute(self, picked: tuple[Activation, int], depth: int):
        """Process one activation completely (possibly nesting others)."""
        activation, queue_index = picked
        context = self.context
        runtime = context.ops[activation.op_id]
        cost = context.params.cost

        overhead = cost.activation_overhead_instructions
        if queue_index != self.index:
            overhead += cost.foreign_queue_penalty_instructions
            context.metrics.foreign_queue_consumptions += 1
        if not activation.is_trigger and activation.remote:
            overhead += context.params.network.receive_instructions(
                activation.nbytes
            )
        yield from self._charge(overhead)

        if activation.is_trigger:
            yield from self._run_scan(activation, runtime, depth)
        elif runtime.kind is OpKind.BUILD:
            yield from self._run_build(activation, runtime)
        else:
            yield from self._run_probe(activation, runtime)

        context.metrics.activations_processed += 1
        runtime.outstanding -= 1
        self._worked_since_idle = True
        context.maybe_end(runtime)

    def _run_scan(self, activation: TriggerActivation, runtime: OperatorRuntime,
                  depth: int):
        """Asynchronous, multiplexed scan (Section 4's I/O pattern).

        The thread keeps up to ``IO_MULTIPLEX_WINDOW`` reads of this scan
        in flight at once — absorbing further trigger activations from the
        scan's queues — and processes completions in *arrival order* (the
        paper's asynchronous I/O "for multiplexing disk accesses with data
        processing").  When nothing of this scan is ready or absorbable,
        it suspends by procedure call into another operator's activation
        (``ProcessAnotherActivation``, never the same operator), bounded
        by ``MAX_SUSPENSION_DEPTH``.

        Absorbed triggers run their full lifecycle here (queue-access
        overhead, conservation counters, end detection); the caller
        finishes only the original activation's lifecycle.
        """
        context = self.context
        params = context.params
        cost = params.cost
        node_disks = context.disks[self.node.node_id]

        def issue(trigger: TriggerActivation):
            disk = node_disks[trigger.disk_id]
            # The stream key is query-scoped: concurrent queries sharing a
            # disk must not be mistaken for one sequential read stream.
            return disk.read_async(
                trigger.pages,
                stream=(context.query_id, runtime.op_id, trigger.disk_id),
                tag=context.charge_tag,
            )

        inflight: list[tuple[TriggerActivation, object]] = [
            (activation, issue(activation))
        ]
        yield from self._charge(params.disk.async_init_instructions)

        while inflight:
            ready_index = next(
                (i for i, (_, handle) in enumerate(inflight) if handle.done),
                None,
            )
            if ready_index is not None:
                trigger, _handle = inflight.pop(ready_index)
                # Top up the window *before* computing, so the freed disk
                # arm streams on while this chunk's CPU work runs.
                if inflight:
                    busy_disks = {t.disk_id for t, _ in inflight}
                    replacement = self._select_trigger_of(runtime, busy_disks)
                    if replacement is not None:
                        extra, queue_index = replacement
                        overhead = cost.activation_overhead_instructions
                        if queue_index != self.index:
                            overhead += cost.foreign_queue_penalty_instructions
                            context.metrics.foreign_queue_consumptions += 1
                        yield from self._charge(overhead)
                        inflight.append((extra, issue(extra)))
                        yield from self._charge(
                            params.disk.async_init_instructions
                        )
                yield from self._charge(
                    trigger.tuples * cost.scan_instructions_per_tuple
                )
                runtime.tuples_in += trigger.tuples
                context.metrics.tuples_scanned += trigger.tuples
                output = batch_output(runtime.op, runtime.tuples_in,
                                      trigger.tuples)
                yield from self._route_output(runtime, output)
                if trigger is not activation:
                    # Absorbed triggers complete their whole lifecycle
                    # here, including end detection.
                    context.metrics.activations_processed += 1
                    runtime.outstanding -= 1
                    context.maybe_end(runtime)
                continue
            # "while (IO_Read(IoRequest) == 0) ProcessAnotherActivation":
            # prefer other operators' activations (the paper's rule) —
            # pipeline work downstream of this very scan, usually.
            if depth < MAX_SUSPENSION_DEPTH:
                other = self._select(exclude_op=runtime.op_id)
                if other is not None:
                    context.metrics.suspensions += 1
                    yield from self._execute(other, depth + 1)
                    continue
            # Nothing else consumable: widen the I/O window with another
            # trigger of this scan so the node's disks keep streaming
            # (essential when threads are statically confined to the scan,
            # as under FP).  Prefer triggers on disks without an in-flight
            # read from this thread.
            if len(inflight) < IO_MULTIPLEX_WINDOW:
                busy_disks = {t.disk_id for t, _ in inflight}
                absorbed = self._select_trigger_of(runtime, busy_disks)
                if absorbed is not None:
                    trigger, queue_index = absorbed
                    overhead = cost.activation_overhead_instructions
                    if queue_index != self.index:
                        overhead += cost.foreign_queue_penalty_instructions
                        context.metrics.foreign_queue_consumptions += 1
                    yield from self._charge(overhead)
                    inflight.append((trigger, issue(trigger)))
                    yield from self._charge(params.disk.async_init_instructions)
                    continue
            env = self._env
            waited_from = env._now
            yield env.any_of([handle.event for _, handle in inflight])
            self.io_wait += env._now - waited_from

    def _run_build(self, activation: DataActivation, runtime: OperatorRuntime):
        """Insert the batch into the group's hash table."""
        context = self.context
        cost = context.params.cost
        yield from self._charge(
            activation.tuples * cost.build_instructions_per_tuple
        )
        # Raise or degrade to unreserved accounting when the chain does
        # not fit: the machine builder's call (``Substrate.strict_memory``).
        fitted = self.node.store.insert(
            runtime.op.join_id, activation.group,
            activation.tuples, activation.tuple_size,
            strict=context.substrate.strict_memory,
        )
        if not fitted:
            context.metrics.memory_overcommit_bytes += (
                activation.tuples * activation.tuple_size
            )
        runtime.tuples_in += activation.tuples
        context.metrics.tuples_built += activation.tuples

    def _run_probe(self, activation: DataActivation, runtime: OperatorRuntime):
        """Probe the group's hash table and route the matches."""
        context = self.context
        cost = context.params.cost
        runtime.tuples_in += activation.tuples
        context.metrics.tuples_probed += activation.tuples
        output = batch_output(runtime.op, runtime.tuples_in,
                              activation.tuples)
        yield from self._charge(
            activation.tuples * cost.probe_instructions_per_tuple
            + output * cost.result_instructions_per_tuple
        )
        yield from self._route_output(runtime, output)

    # -- output helpers -----------------------------------------------------------------------

    def _route_output(self, runtime: OperatorRuntime, output: int):
        """Push output tuples into the operator's channel on this node."""
        if output <= 0:
            return
        channel = self.context.channels[(self.node.node_id, runtime.op_id)]
        instructions = channel.push_tuples(output)
        if instructions:
            yield from self._charge(instructions)
