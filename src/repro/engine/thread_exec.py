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
  ``max_suspension_depth``.

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
from .opstate import OperatorRuntime
from .queues import ActivationQueue

__all__ = ["ExecutionThread"]


class ExecutionThread:
    """One simulated processor's worth of query execution."""

    def __init__(self, context: ExecutionContext, node: NodeState, index: int):
        self.context = context
        self.node = node
        self.index = index
        #: the physical processor backing this thread; threads of other
        #: concurrent queries with the same (node, index) share it.
        self.processor = context.processors[node.node_id][index]
        # ``_charge``'s invariants, bound once: the clock, the CPU speed,
        # the processor's discipline entry point and the resolved tag.
        self._env = context.env
        self._mips = context.params.cost.mips
        self._use = self.processor._use
        self._tag = (DEFAULT_TAG if context.charge_tag is None
                     else context.charge_tag)
        self.busy_time = 0.0
        self.idle_time = 0.0
        #: FP restriction: the operator ids this thread may process
        #: (None = unrestricted, the DP default).
        self.assigned_ops: Optional[set[int]] = None
        self.wake_event = None
        self.process = None
        #: fractional output carry per operator (exact tuple conservation).
        self._out_carry: dict[int, float] = {}
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
        """Consume CPU: hold the processor, advance time, record busy time.

        The charge acquires the thread's physical processor for its
        duration; with one query per machine the processor is always free
        and this degenerates to a plain timeout.  Under multiprogramming,
        time spent queued behind another query's charge is recorded as
        ``cpu_contention_time`` (it is neither busy nor idle time).
        """
        # ``metrics.thread_busy_time`` is derived from the per-thread
        # totals at collect time, not accumulated live.
        seconds = instructions / self._mips
        self.busy_time += seconds
        env = self._env
        started = env._now
        yield from self._use(self.processor, seconds, self._tag)
        waited = env._now - started - seconds
        if waited > 1e-12:
            # Read through the context: ``collect`` swaps the metrics object.
            self.context.metrics.cpu_contention_time += waited

    # -- activation selection (Figure 5) ----------------------------------------------

    def _select(self, exclude_op: Optional[int] = None
                ) -> Optional[tuple[Activation, ActivationQueue]]:
        """Pick and pop the next activation, or None if nothing is consumable.

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
            queue = queue_set.queues[index]
            if queue._items:
                activation = queue_set.pop(index)
                node.on_queue_pop(queue, activation)
                return activation, queue
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
                queue = queue_set.queues[queue_index]
                activation = queue_set.pop(queue_index)
                node.on_queue_pop(queue, activation)
                return activation, queue
        return None

    def _select_trigger_of(self, runtime: OperatorRuntime,
                           busy_disks: Optional[set[int]] = None,
                           ) -> Optional[tuple[Activation, ActivationQueue]]:
        """Pop another trigger of the same scan (I/O-wait fallback).

        ``busy_disks`` holds disk ids this thread already has reads in
        flight on; triggers targeting *other* disks are preferred so the
        absorbed window spreads over the node's disks instead of queueing
        behind one arm.
        """
        node = self.node
        if not self.context.is_op_selectable(node, runtime):
            return None
        queue_set = node.queue_sets[runtime.op_id]
        n = len(queue_set.queues)
        fallback: Optional[int] = None
        for offset in range(n):
            queue_index = (self.index + offset) % n
            head = queue_set.queues[queue_index].peek()
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
        queue = queue_set.queues[fallback]
        activation = queue_set.pop(fallback)
        node.on_queue_pop(queue, activation)
        return activation, queue

    # -- idling --------------------------------------------------------------------------

    def _go_idle(self):
        """Signal the scheduler, re-check, then sleep until woken.

        The signal costs CPU (operating-system signal to the scheduler
        thread, Section 4) on the transition into idleness; a woken thread
        that finds nothing goes straight back to sleep without re-paying.
        After paying the signal the thread re-checks for work that may
        have arrived meanwhile.
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
        event = self.node.register_idle(self)
        started = context.env.now
        yield event
        self.idle_time += context.env.now - started

    # -- processing -----------------------------------------------------------------------

    def _execute(self, picked: tuple[Activation, ActivationQueue], depth: int):
        """Process one activation completely (possibly nesting others)."""
        activation, queue = picked
        context = self.context
        runtime = context.ops[activation.op_id]
        cost = context.params.cost

        overhead = cost.activation_overhead_instructions
        if queue.thread_index != self.index:
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

        runtime.activations_processed += 1
        context.metrics.activations_processed += 1
        runtime.outstanding -= 1
        self._worked_since_idle = True
        context.maybe_end(runtime)

    def _run_scan(self, activation: TriggerActivation, runtime: OperatorRuntime,
                  depth: int):
        """Asynchronous, multiplexed scan (Section 4's I/O pattern).

        The thread keeps up to ``io_multiplex_window`` reads of this scan
        in flight at once — absorbing further trigger activations from the
        scan's queues — and processes completions in *arrival order* (the
        paper's asynchronous I/O "for multiplexing disk accesses with data
        processing").  When nothing of this scan is ready or absorbable,
        it suspends by procedure call into another operator's activation
        (``ProcessAnotherActivation``, never the same operator), bounded
        by ``max_suspension_depth``.

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
                        extra, queue = replacement
                        overhead = cost.activation_overhead_instructions
                        if queue.thread_index != self.index:
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
                output = self._integer_output(runtime, trigger.tuples)
                runtime.tuples_out += output
                yield from self._route_output(runtime, output)
                if trigger is not activation:
                    # Absorbed triggers complete their whole lifecycle
                    # here, including end detection.
                    runtime.activations_processed += 1
                    context.metrics.activations_processed += 1
                    runtime.outstanding -= 1
                    context.maybe_end(runtime)
                continue
            # "while (IO_Read(IoRequest) == 0) ProcessAnotherActivation":
            # prefer other operators' activations (the paper's rule) —
            # pipeline work downstream of this very scan, usually.
            if depth < params.max_suspension_depth:
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
            if len(inflight) < params.io_multiplex_window:
                busy_disks = {t.disk_id for t, _ in inflight}
                absorbed = self._select_trigger_of(runtime, busy_disks)
                if absorbed is not None:
                    trigger, queue = absorbed
                    overhead = cost.activation_overhead_instructions
                    if queue.thread_index != self.index:
                        overhead += cost.foreign_queue_penalty_instructions
                        context.metrics.foreign_queue_consumptions += 1
                    yield from self._charge(overhead)
                    inflight.append((trigger, issue(trigger)))
                    yield from self._charge(params.disk.async_init_instructions)
                    continue
            yield context.env.any_of(
                [handle.event for _, handle in inflight]
            )

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
        # Per-query stores, not the node pools: under a shared substrate
        # the pool watermark mixes every concurrent query's reservations.
        watermark = max(n.store.high_watermark for n in context.nodes)
        if watermark > context.metrics.memory_high_watermark:
            context.metrics.memory_high_watermark = watermark

    def _run_probe(self, activation: DataActivation, runtime: OperatorRuntime):
        """Probe the group's hash table and route the matches."""
        context = self.context
        cost = context.params.cost
        runtime.tuples_in += activation.tuples
        context.metrics.tuples_probed += activation.tuples
        output = self._integer_output(runtime, activation.tuples)
        runtime.tuples_out += output
        yield from self._charge(
            activation.tuples * cost.probe_instructions_per_tuple
            + output * cost.result_instructions_per_tuple
        )
        yield from self._route_output(runtime, output)

    # -- output helpers -----------------------------------------------------------------------

    def _integer_output(self, runtime: OperatorRuntime, tuples: int) -> int:
        """Expected output with an exact fractional carry per operator."""
        carry = self._out_carry.get(runtime.op_id, 0.0)
        carry += tuples * runtime.op.fanout
        whole = int(carry)
        self._out_carry[runtime.op_id] = carry - whole
        return whole

    def _route_output(self, runtime: OperatorRuntime, output: int):
        """Push output tuples into the operator's channel on this node."""
        if output <= 0:
            return
        channel = self.context.channels[(self.node.node_id, runtime.op_id)]
        instructions = channel.push_tuples(output)
        if instructions:
            yield from self._charge(instructions)
