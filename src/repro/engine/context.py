"""Execution context: the shared runtime state of one query execution.

Wires together the machine it is handed (a :class:`~repro.engine.substrate.
Substrate`: environment, node memory, processors, disks, interconnect),
the plan-derived operator runtimes, the per-node state (queues, hash
tables, idle/wake bookkeeping) and the cross-cutting mechanisms:

* trigger seeding ("query execution starts by sending trigger activations
  to all scan queues", Section 4 — blocked scans receive their triggers
  too, in blocked queues);
* operator termination effects (unblocking successors, flushing producer
  channels, releasing hash tables, detecting query completion);
* flow-control callbacks between queues and output channels;
* the ground-truth ``outstanding`` accounting that the distributed
  end-detection protocol of :mod:`repro.engine.scheduler` certifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..optimizer.operator_tree import OpKind
from ..optimizer.plan import ParallelExecutionPlan
from ..sim.core import DEFAULT_TAG, Event, Process
from ..sim.machine import MachineConfig, SMNode
from ..sim.network import Network
from ..sim.rng import RandomStreams
from .activation import DataActivation, GroupId, TriggerActivation
from .metrics import ExecutionMetrics
from .opstate import OperatorRuntime
from .params import ExecutionParams
from .queues import ActivationQueue, OperatorQueueSet
from .routing import OutputChannel, ResultSink
from .tables import HashTableStore
from .template import ExecutionTemplate, queue_shares

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import NodeScheduler
    from .substrate import Substrate
    from .thread_exec import ExecutionThread

__all__ = ["NodeState", "ExecutionContext", "ExecutionDeadlock"]


class ExecutionDeadlock(RuntimeError):
    """The event heap drained before the root operator terminated."""


class NodeState:
    """Per-SM-node runtime state."""

    def __init__(self, context: "ExecutionContext", node_id: int, smnode: SMNode):
        self.context = context
        self.node_id = node_id
        self.smnode = smnode
        self.store = HashTableStore(smnode)
        #: op_id -> queue set, for operators homed on this node.
        self.queue_sets: dict[int, OperatorQueueSet] = {}
        #: what thread selection walks: one ``(op_id, queue set, runtime,
        #: output channel or None)`` per entry of :attr:`queue_sets`, in
        #: the same order — built once the context's channels exist.
        self.selection: tuple[tuple[int, OperatorQueueSet, OperatorRuntime,
                                    Optional[OutputChannel]], ...] = ()
        self.threads: list["ExecutionThread"] = []
        self.scheduler: Optional["NodeScheduler"] = None
        self._idle: list["ExecutionThread"] = []
        #: per (consumer op, queue index), per src node in first-owed
        #: order: consumed since the last credit return (flow-control
        #: bookkeeping).
        self._credit_owed: dict[tuple[int, int], dict[int, int]] = {}
        #: owed credits returned at once, without waiting for the queue
        #: to empty: half the window.
        self._credit_threshold = max(1, context.params.credit_window // 2)
        #: set after a fruitless steal round; cleared when local state
        #: changes, so idle threads do not spam starving messages.
        self.lb_blocked_scopes: set[Optional[int]] = set()

    # -- wake / idle -------------------------------------------------------------

    def register_idle(self, thread: "ExecutionThread") -> Event:
        """Park a thread; returns the event that will wake it."""
        event = self.context.env.event(f"wake:n{self.node_id}t{thread.index}")
        thread.wake_event = event
        self._idle.append(thread)
        return event

    def wake_all(self) -> None:
        """Wake every parked thread on this node."""
        if not self._idle:
            return
        parked, self._idle = self._idle, []
        for thread in parked:
            event, thread.wake_event = thread.wake_event, None
            if event is not None and not event.triggered:
                event.succeed()

    def wake_for_op(self, op_id: int) -> None:
        """Wake parked threads that may consume ``op_id``.

        Under FP most threads cannot touch most operators; waking them on
        every unrelated enqueue would only make them pay the idle-signal
        cost again (a wakeup storm).  DP threads are always eligible.
        """
        if not self._idle:
            return
        keep: list["ExecutionThread"] = []
        woken = False
        for thread in self._idle:
            eligible = thread.assigned_ops is None or op_id in thread.assigned_ops
            if eligible:
                event, thread.wake_event = thread.wake_event, None
                if event is not None and not event.triggered:
                    event.succeed()
                woken = True
            else:
                keep.append(thread)
        if woken:
            self._idle = keep

    # -- queue callbacks ------------------------------------------------------------

    def on_queue_push(self, queue: ActivationQueue) -> None:
        """Arrival hook: wake eligible threads, clear the failed-steal latch."""
        self.lb_blocked_scopes.clear()
        self.wake_for_op(queue.op_id)

    def on_queue_pop(self, queue: ActivationQueue,
                     activation: DataActivation | TriggerActivation) -> None:
        """Consumption hook: flow-control drains and credit returns."""
        # A slot freed: the producer's channel may have parked batches.
        producer_id = self.context.producer_of.get(queue.op_id)
        if producer_id is not None:
            channel = self.context.channels.get((self.node_id, producer_id))
            if channel is not None:
                channel.on_local_space(queue.thread_index)
        # Credit return for remote batches.
        if (not activation.is_trigger and activation.remote
                and activation.src_node >= 0):
            queue_key = (queue.op_id, queue.thread_index)
            owed_by_src = self._credit_owed.get(queue_key)
            if owed_by_src is None:
                owed_by_src = self._credit_owed[queue_key] = {}
            src = activation.src_node
            owed = owed_by_src.get(src, 0) + 1
            if owed >= self._credit_threshold:
                owed_by_src[src] = 0
                self.context.return_credits(
                    self.node_id, src, queue.op_id,
                    (self.node_id, queue.thread_index), owed,
                )
            else:
                owed_by_src[src] = owed
        # An emptied queue returns every owed credit at once: producers may
        # be parked on their last sub-window batches (e.g. after a flush),
        # and withholding the crumbs would wedge the pipeline.
        if queue.is_empty:
            owed_by_src = self._credit_owed.pop(
                (queue.op_id, queue.thread_index), None)
            if owed_by_src:
                for src, owed in owed_by_src.items():
                    if owed:
                        self.context.return_credits(
                            self.node_id, src, queue.op_id,
                            (self.node_id, queue.thread_index), owed,
                        )

    def close(self) -> None:
        """Cut this node's cycles: the edge back to the context, the
        threads and scheduler (which point back at it) and the queue sets'
        arrival hooks (bound to it).  See :meth:`ExecutionContext.close`."""
        self.context = None
        self.threads = []
        self.scheduler = None
        for queue_set in self.queue_sets.values():
            queue_set.on_push = None

    def total_queued_activations(self) -> int:
        """This query's queued activations on this node (the broker's
        steal-benefit ranking; machine-wide load is ``Substrate.queued``)."""
        total = 0
        for queue_set in self.queue_sets.values():
            total += queue_set._queued
        return total


class ExecutionContext:
    """All shared state of one simulated query execution.

    A context owns no hardware: the environment, node memory, processors
    and disks are its ``substrate``'s (:class:`~repro.engine.substrate.
    Substrate`), built for this query alone (``QueryExecutor.run``, the
    single-query mode of the original paper) or shared with other
    concurrent executions (:mod:`repro.serving`).  What the context keeps
    to itself are its queues, operator runtimes, schedulers and network
    overlay (per-query traffic counters stay exact; with the paper's
    infinite bandwidth the overlays are semantically identical to one
    multiplexed network, and with finite bandwidth they all serialize
    over the substrate's one :class:`~repro.sim.network.NetworkLink`);
    its threads contend with whatever else is on the machine for the
    :class:`~repro.sim.machine.Processor` slots, disks and node memory.
    ``start_time`` is the launch (admission) time: response times are
    reported relative to it, separating queueing delay from execution
    time.
    """

    def __init__(self, plan: ParallelExecutionPlan, config: MachineConfig,
                 substrate: "Substrate",
                 params: Optional[ExecutionParams] = None,
                 query_id: int = 0, service_class=None,
                 template: Optional[ExecutionTemplate] = None):
        self.plan = plan
        self.config = config
        self.params = params or ExecutionParams()
        if template is None:
            template = ExecutionTemplate(plan, config, self.params)
        elif template.plan is not plan or template.config != config:
            raise ValueError("the execution template was built for another "
                             "plan or machine")
        #: the seed-independent tables this context instantiates, shared
        #: read-only with every other execution its owner launches; held
        #: until the triggers are seeded (see :meth:`seed_triggers`).
        self.template: Optional[ExecutionTemplate] = template
        self.substrate = substrate
        self.query_id = query_id
        #: the serving layer's service class (weight/priority/SLO); None
        #: for the paper's single-query mode.
        self.service_class = service_class
        #: scheduling attributes every CPU charge of this query carries;
        #: None charges as the default tag (FIFO ignores tags entirely).
        self.charge_tag = (service_class.charge_tag(query_id)
                          if service_class is not None else None)
        self.env = substrate.env
        self.processors = substrate.processors
        self.disks = substrate.disks
        # A per-query overlay over the machine's one physical link: traffic
        # counters stay per query, but messages of all queries queue
        # behind each other on the one interconnect.
        self.network = Network(self.env, self.params.network,
                               link=substrate.net_link)
        self.streams = RandomStreams(self.params.seed)
        self.metrics = ExecutionMetrics()
        self.result_sink = ResultSink()
        self.done = False
        self.finished = self.env.event("query-finished")
        #: live processes of this execution (see :meth:`spawn`); with the
        #: overlay's in-flight messages, the tails :meth:`close` waits for.
        self._live = 0
        self._closing = False
        #: launch (admission) time; 0.0 for a query run alone.
        self.start_time: float = self.env.now
        self.completion_time: Optional[float] = None
        self.response_time: Optional[float] = None

        self.nodes: list[NodeState] = [
            NodeState(self, n, substrate.machine.node(n))
            for n in range(config.nodes)
        ]
        substrate.register_context(self)

        # --- operator runtimes and their queues -----------------------------
        self.ops: dict[int, OperatorRuntime] = {}
        #: consumer op -> its unique pipelined producer op.
        self.producer_of: dict[int, int] = dict(template.producer_of)
        k = config.processors_per_node
        capacity = self.params.queue_capacity
        for op, home, predecessors in template.operators:
            runtime = OperatorRuntime(op, home, predecessors)
            self.ops[op.op_id] = runtime
            for node_id in home:
                node = self.nodes[node_id]
                queue_set = OperatorQueueSet(op.op_id, node_id, k, capacity,
                                             substrate.queued)
                queue_set.set_blocked(runtime.blocked)
                queue_set.on_push = node.on_queue_push
                node.queue_sets[op.op_id] = queue_set

        # --- routing ----------------------------------------------------------------
        self.channels: dict[tuple[int, int], OutputChannel] = {}
        tuple_size = template.tuple_size
        for op_id, consumer_id, router, channels in template.routes:
            if router is not None and template.permutes:
                # This producer's own permutation of the Zipf weights over
                # the shared bucket space (Section 5.2.2).
                router = router.with_bucket_weights(
                    self._permuted(router.buckets, f"router:{op_id}")
                )
            for node_id, credits in channels:
                self.channels[(node_id, op_id)] = OutputChannel(
                    self, node_id, op_id, consumer_id, router, tuple_size,
                    credits,
                )
        for node in self.nodes:
            node.selection = tuple(
                (op_id, queue_set, self.ops[op_id],
                 self.channels.get((node.node_id, op_id)))
                for op_id, queue_set in node.queue_sets.items()
            )

    # -- small helpers -----------------------------------------------------------

    def _permuted(self, n: int, stream: str) -> list[float]:
        """The template's Zipf weights over ``n`` cells, shuffled by the
        query's stream of that name (each stream is drawn from once)."""
        weights = list(self.template.zipf_vector(n))
        self.streams.stream(stream).shuffle(weights)
        return weights

    def instructions_time(self, instructions: float) -> float:
        """Virtual seconds for ``instructions`` on one processor."""
        return instructions / self.params.cost.mips

    # -- trigger seeding (Section 4, "Query execution") ---------------------------

    def seed_triggers(self) -> None:
        """Queue all trigger activations and mark scans' producers done."""
        template = self.template
        k = self.config.processors_per_node
        for op_id, seeds in template.scans:
            runtime = self.ops[op_id]
            for node_id, chunks, shares in seeds:
                if template.permutes:
                    # A Zipf factor reproduces the paper's trigger-side
                    # redistribution skew (Section 5.2.2).
                    shares = queue_shares(chunks, self._permuted(
                        k, f"trigger:{op_id}:{node_id}"
                    ))
                runtime.outstanding += len(chunks)
                self.metrics.trigger_activations += len(chunks)
                queue_set = self.nodes[node_id].queue_sets[op_id]
                for queue_index, share in enumerate(shares):
                    if share:
                        queue_set.seed(queue_index, share)
            runtime.producers_done = True
            # An empty scan may be done before it starts.
            self.maybe_end(runtime)
        # Instantiation is complete.  The running query must not keep its
        # owner's template — a large plan's trigger chunks — alive while
        # the queues release the chunks one by one as they are consumed
        # (``single_skew`` peaked 4 MiB higher when it did).
        self.template = None

    # -- network paths --------------------------------------------------------------

    def send_data_activation(self, src_node: int, activation: DataActivation) -> int:
        """Ship a pipelined batch to its group's home node.

        Returns the sender-side CPU instructions (charged by the calling
        thread; scheduler-context callers fold them into latency).
        """
        dst_node = activation.group[0]
        nbytes = activation.tuples * activation.tuple_size
        self.network.send(src_node, dst_node, "data", activation, nbytes,
                          purpose="pipeline", tag=self.charge_tag)
        return self.params.network.send_instructions(nbytes)

    def deliver_data_activation(self, activation: DataActivation) -> None:
        """Receiver side: push a remote batch into its destination queue.

        Remote arrivals may exceed the queue bound by up to the credit
        window (the window *is* the reservation), hence ``force``.
        """
        node_id, queue_index = activation.group
        queue_set = self.nodes[node_id].queue_sets[activation.op_id]
        queue_set.push(queue_index, activation, force=True)

    def return_credits(self, src_node: int, dst_node: int, op_id: int,
                       cell: GroupId, count: int) -> None:
        """Send a flow-control credit message back to a producer node."""
        if src_node == dst_node:
            return
        self.network.send(src_node, dst_node, "credit",
                          (op_id, cell, count), nbytes=16, purpose="control",
                          tag=self.charge_tag)

    def on_credit_message(self, node_id: int, payload) -> None:
        """Producer node received returned credits: drain parked batches."""
        op_id, cell, count = payload
        producer_id = self.producer_of.get(op_id)
        if producer_id is None:
            return
        channel = self.channels.get((node_id, producer_id))
        if channel is not None:
            channel.on_credit(cell, count)

    # -- flow-control hooks -------------------------------------------------------------

    def on_channel_unstalled(self, channel: OutputChannel) -> None:
        """A producer unstalled: its activations are selectable again."""
        node = self.nodes[channel.node_id]
        node.lb_blocked_scopes.clear()
        node.wake_for_op(channel.producer_op_id)

    def is_op_selectable(self, node: NodeState, runtime: OperatorRuntime) -> bool:
        """Whether a thread on ``node`` may consume this operator now.

        Unblocked, not terminated, not suspended (memory preemption), has
        queued work, and its output channel on this node is not stalled
        (flow control).
        """
        if runtime.terminated or runtime.blocked or runtime.suspended:
            return False
        queue_set = node.queue_sets.get(runtime.op_id)
        if queue_set is None or not queue_set.has_work:
            return False
        channel = self.channels.get((node.node_id, runtime.op_id))
        if channel is not None and channel.stalled:
            return False
        return True

    # -- operator termination ---------------------------------------------------------------

    def maybe_end(self, runtime: OperatorRuntime) -> None:
        """Run the end-detection protocol if the operator just ended.

        The ground truth is exact (``outstanding`` counting); the protocol
        adds the paper's 4(n-1) messages and four network delays before the
        termination takes effect (Section 4, "Detection of Operator End").
        """
        if not runtime.end_eligible:
            return
        runtime.ending = True
        from .scheduler import run_end_detection  # late import (cycle)
        self.spawn(run_end_detection(self, runtime), f"end:{runtime.label}")

    def terminate_op(self, runtime: OperatorRuntime) -> None:
        """Apply an operator's termination effects everywhere."""
        if runtime.terminated:
            return
        runtime.terminated = True
        runtime.ending = False
        runtime.termination_time = self.env.now
        self.metrics.op_end_times[runtime.op_id] = self.env.now

        # 1. Unblock successors whose predecessors are now all done.
        for other in self.ops.values():
            if runtime.op_id in other.remaining_predecessors:
                if other.predecessor_terminated(runtime.op_id):
                    for node_id in other.home:
                        self.nodes[node_id].queue_sets[other.op_id].set_blocked(False)
                        self.nodes[node_id].lb_blocked_scopes.clear()
                    if self.strategy is not None:
                        self.strategy.on_op_unblocked(self, other)

        # 2. Flush this operator's output channels, then mark the consumer's
        #    producers done (order matters: flush first so every tuple is an
        #    accounted activation before the consumer can look finished).
        consumer_id = runtime.op.consumer_id
        if consumer_id is not None:
            for node_id in runtime.home:
                channel = self.channels.get((node_id, runtime.op_id))
                if channel is not None:
                    channel.flush()
            consumer = self.ops[consumer_id]
            consumer.producers_done = True
            self.maybe_end(consumer)

        # 3. A probe's end releases its join's hash tables (on every node,
        #    including stolen copies).  The freed memory may unblock a
        #    deferred admission right now.
        if runtime.kind is OpKind.PROBE:
            freed = sum(
                node.store.release_join(runtime.op.join_id)
                for node in self.nodes
            )
            if freed:
                self.substrate.notify_memory_released()

        if self.strategy is not None:
            self.strategy.on_op_terminated(self, runtime)

        # 4. Root termination finishes the query.
        if runtime.op_id == self.plan.operators.root_id:
            self.finish()
        else:
            for node in self.nodes:
                node.lb_blocked_scopes.clear()
                node.wake_all()

    def finish(self) -> None:
        """Mark the query complete and wake everything so processes exit.

        ``response_time`` is the *execution* time — completion minus
        admission (``start_time``).  For a query run alone ``start_time``
        is 0 and this is the classic paper number; under the serving
        layer the queueing delay spent before
        admission is accounted separately (:class:`~repro.engine.metrics.
        QueryCompletion`), never folded into the execution time.
        """
        if self.done:
            return
        self.done = True
        self.completion_time = self.env.now
        self.response_time = self.env.now - self.start_time
        self.metrics.response_time = self.response_time
        # Per-resource queueing attribution: the disks and the network
        # link account waiting per ChargeTag key, and this query's key is
        # unique (per query under the serving layer, the default tag for
        # a query run alone).  The totals are *taken*: a device must not
        # keep a key for every query that ever queued on it.
        key = (self.charge_tag or DEFAULT_TAG).key
        # Folded left to right: float ``sum()`` rounds differently from 3.12 on.
        disk_wait = 0.0
        for row in self.disks:
            for disk in row:
                disk_wait += disk.take_wait_time(key)
        self.metrics.disk_wait_time = disk_wait
        self.metrics.net_wait_time = self.network.take_wait_time(key)
        self.substrate.unregister_context(self)
        if not self.finished.triggered:
            self.finished.succeed()
        for node in self.nodes:
            node.wake_all()

    # -- tails and teardown -------------------------------------------------------------------

    def spawn(self, generator, name: str) -> Process:
        """Start one of this execution's processes (a thread, an end
        detection, a steal shipment or install): counted until it exits."""
        self._live += 1
        process = self.env.process(generator, name=name)
        # Rides on the completion event every process schedules anyway.
        process.callbacks.append(self._exited)
        return process

    def _exited(self, _process: Process) -> None:
        self._live -= 1
        if self._closing:
            self._teardown_when_idle()

    def close(self) -> None:
        """Let refcount free the finished execution, not the collector.

        Nodes, channels, threads and schedulers point back at the context
        (the schedulers through the network overlay's inboxes), so a
        finished context is a reference cycle.  The teardown cuts every
        edge back, leaving the context the root of a plain tree.  Code of
        this execution may still run after ``finished``: woken threads
        exiting, messages in flight, the steal traffic they answer.  So
        the teardown runs when the last counted process has exited and the
        last message has been delivered, and it schedules nothing.
        """
        if self._closing:
            return
        self._closing = True
        self.network.on_drained = self._teardown_when_idle
        self._teardown_when_idle()

    def _teardown_when_idle(self) -> None:
        if self._live or self.network.in_flight:
            return
        for node in self.nodes:
            node.close()
        for channel in self.channels.values():
            channel.context = None
        self.network.close()

    # -- post-run verification -----------------------------------------------------------------

    def assert_all_terminated(self) -> None:
        """Raise :class:`ExecutionDeadlock` unless every operator ended."""
        stuck = [r for r in self.ops.values() if not r.terminated]
        if stuck:
            detail = ", ".join(
                f"{r.label}(blocked={r.blocked}, outstanding={r.outstanding}, "
                f"producers_done={r.producers_done})"
                for r in stuck
            )
            raise ExecutionDeadlock(f"operators never terminated: {detail}")

    # strategy is attached by the executor before seeding.
    strategy = None
