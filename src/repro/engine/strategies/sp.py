"""Synchronous Pipelining (SP): the shared-memory baseline [Shekita93].

Section 5.2.1: "Each processor is multiplexed between I/O and CPU threads
and participates in every operator of a pipeline chain.  I/O threads are
used to read the base relations into buffers.  Each CPU thread reads
tuples from the buffers and probes all the hash tables along the pipeline
chain.  Unless there is severe data skew ... this model will achieve
perfect load balancing.  However, SP cannot be implemented in
shared-nothing because data redistribution between two successive
operators would imply costly remote procedure synchronization."

Model: pipeline chains execute one at a time (the plan's scheduling); for
each chain, every thread repeatedly grabs a page chunk of the driving
relation from a shared pool, reads it (double-buffered asynchronous I/O —
the I/O-thread multiplexing), then carries each tuple *synchronously*
through every operator of the chain by procedure call: no activations, no
queues, no interference — which is exactly why SP bounds DP from below in
Figure 6, by the activation/queue overhead DP pays.

SP is only defined on a single SM-node (one shared memory): requesting it
on a multi-node configuration raises :class:`StrategyError`.

SP takes its hardware the way DP and FP do: ``launch`` starts it on node
0 of a :class:`~repro.engine.substrate.Substrate` (private when run
alone, the coordinator's when co-resident), ``collect`` freezes the
result once the execution's ``finished`` event has fired.  A lone SP run
goes through ``QueryExecutor(plan, config, strategy="SP").run()``, the
one run path, which also raises :class:`ExecutionDeadlock` when the
simulation drains before the chains finish.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ...catalog.skew import proportional_split
from ...optimizer.operator_tree import OpKind, PipelineChain
from ...optimizer.plan import ParallelExecutionPlan
from ...optimizer.scheduling import chain_total_order
from ...sim.core import DEFAULT_TAG, Process
from ...sim.machine import MachineConfig
from ..context import ExecutionDeadlock
from ..metrics import ExecutionMetrics, ExecutionResult, ThreadTime
from ..opstate import batch_output
from ..substrate import Substrate
from .base import StrategyError

__all__ = ["SynchronousPipeliningExecutor", "SPExecution"]


@dataclass
class _Chunk:
    """One shared-pool unit of scan work: pages on one disk."""

    disk_id: int
    pages: int
    tuples: int


class SPExecution:
    """A launched SP execution: the handle between launch and collect,
    with the surface of an :class:`~repro.engine.context.ExecutionContext`
    that callers of either use (``finished``, ``done``, ``ops``,
    ``assert_all_terminated``)."""

    #: SP has no operator runtimes: nothing to suspend, spill or steal.
    ops: dict = {}

    def __init__(self, substrate: Substrate, threads: int, wait_key: str):
        self.substrate = substrate
        self.wait_key = wait_key
        self.start_time: float = substrate.env.now
        self.metrics = ExecutionMetrics()
        #: one per processor, alive from launch to completion: a chain's
        #: worker on that processor fills it, and so does the wait at the
        #: chain's barrier once the worker's pool has drained.
        self.threads = [ThreadTime() for _ in range(threads)]
        self.results = 0
        self.done = False
        #: the driver process — an event that fires at query completion.
        self.finished: Process | None = None

    def assert_all_terminated(self) -> None:
        """Raise :class:`ExecutionDeadlock` unless every chain ran."""
        if not self.done:
            raise ExecutionDeadlock("SP driver never finished its chains")


class SynchronousPipeliningExecutor:
    """Executes a plan with the SP model on one SM-node."""

    def __init__(self, plan: ParallelExecutionPlan, config: MachineConfig):
        if config.nodes != 1:
            raise StrategyError(
                "SP is a shared-memory model: it requires a single SM-node "
                f"(got {config.nodes}); the paper notes it 'cannot be "
                "implemented in shared-nothing'"
            )
        self.plan = plan
        self.config = config

    def launch(self, substrate: Substrate, query_id: int = 0,
               service_class=None) -> SPExecution:
        """Start the SP execution on ``substrate``; return its handle.

        SP is a single-SM-node model: it runs on node 0's disks and
        processors, under the substrate's params.  CPU charges and disk reads are tagged with
        ``service_class``'s weight/priority, so under a non-FIFO
        discipline concurrent SP queries are scheduled exactly like
        DP/FP threads of the same class.
        """
        substrate.check_hardware(self.config)
        env = substrate.env
        disks = substrate.disks[0]
        processors = substrate.processors[0]
        params = substrate.params
        cost = params.cost
        mips = substrate.config.mips
        k = self.config.processors_per_node
        tree = self.plan.operators
        charge_tag = (service_class.charge_tag(query_id)
                      if service_class is not None else None)
        order = chain_total_order(tree)
        execution = SPExecution(substrate, k, (charge_tag or DEFAULT_TAG).key)
        metrics = execution.metrics
        threads = execution.threads
        # Each worker's exit instant in the running chain: its thread's
        # wait at the chain's barrier starts there.
        exited = [0.0] * k
        tuples_in = {op.op_id: 0 for op in tree}

        def charge(thread_index: int, instructions: float):
            thread = threads[thread_index]
            seconds = instructions / mips
            thread.cpu += seconds
            started = env.now
            yield from processors[thread_index].use(seconds, charge_tag)
            waited = env.now - started - seconds
            if waited > 1e-12:
                thread.cpu_contention += waited
                metrics.cpu_contention_time += waited

        def make_chunks(chain: PipelineChain) -> list[_Chunk]:
            """Chunks interleaved round-robin across disks.

            The interleaving spreads concurrent threads over all disks while
            keeping each disk's own chunks in sequential order, so the
            per-disk read stream stays sequential (one seek per disk).
            """
            source = tree.op(chain.source_id)
            placement = self.plan.placements[source.relation.name]
            tuples_per_page = source.relation.tuples_per_page(self.config.page_size)
            per_disk: list[list[_Chunk]] = []
            for disk_id, disk_tuples in enumerate(placement.disk_shares(0)):
                if disk_tuples == 0:
                    continue
                pages = math.ceil(disk_tuples / tuples_per_page)
                n_chunks = math.ceil(pages / params.pages_per_trigger)
                page_shares = proportional_split(pages, [1.0] * n_chunks)
                tuple_shares = proportional_split(disk_tuples, page_shares)
                disk_chunks = [
                    _Chunk(disk_id, chunk_pages, chunk_tuples)
                    for chunk_pages, chunk_tuples in zip(page_shares, tuple_shares)
                    if chunk_pages
                ]
                per_disk.append(disk_chunks)
            interleaved: list[_Chunk] = []
            depth = max((len(d) for d in per_disk), default=0)
            for i in range(depth):
                for disk_chunks in per_disk:
                    if i < len(disk_chunks):
                        interleaved.append(disk_chunks[i])
            return interleaved

        def process_tuples(chain: PipelineChain, n: int):
            """Carry ``n`` scanned tuples through the chain by procedure
            calls; the scan's own cost is charged by the caller."""
            instructions = 0.0
            for op_id in chain.op_ids:
                op = tree.op(op_id)
                tuples_in[op_id] += n
                out = batch_output(op, tuples_in[op_id], n)
                if op.kind is OpKind.PROBE:
                    metrics.tuples_probed += n
                    instructions += (n * cost.probe_instructions_per_tuple
                                     + out * cost.result_instructions_per_tuple)
                elif op.kind is OpKind.BUILD:
                    metrics.tuples_built += n
                    instructions += n * cost.build_instructions_per_tuple
                n = out
            if chain.terminal_id == tree.root_id:
                execution.results += n
            return instructions

        def worker(thread_index: int, chain: PipelineChain, pool):
            """Double-buffered scan + synchronous pipeline execution.

            One charge per chunk: the scan and every downstream
            operator's per-tuple work fold into a single ``use``.
            """
            thread = threads[thread_index]
            # Query-scoped stream keys: concurrent queries sharing a disk
            # must not be mistaken for one sequential read stream.
            pending = None
            while pool or pending is not None:
                if pending is None:
                    chunk = pool.popleft()
                    handle = disks[chunk.disk_id].read_async(
                        chunk.pages,
                        stream=(query_id, chain.chain_id, chunk.disk_id),
                        tag=charge_tag,
                    )
                    yield from charge(thread_index,
                                      params.disk.async_init_instructions)
                    pending = (chunk, handle)
                chunk, handle = pending
                # Prefetch the next chunk before waiting (I/O multiplexing).
                if pool:
                    nxt = pool.popleft()
                    nxt_handle = disks[nxt.disk_id].read_async(
                        nxt.pages,
                        stream=(query_id, chain.chain_id, nxt.disk_id),
                        tag=charge_tag,
                    )
                    yield from charge(thread_index,
                                      params.disk.async_init_instructions)
                    pending = (nxt, nxt_handle)
                else:
                    pending = None
                started = env.now
                yield handle.event
                thread.io_wait += env.now - started
                metrics.tuples_scanned += chunk.tuples
                instructions = chunk.tuples * cost.scan_instructions_per_tuple
                instructions += process_tuples(chain, chunk.tuples)
                yield from charge(thread_index, instructions)
            exited[thread_index] = env.now

        def driver():
            for chain_id in order:
                chain = tree.chains[chain_id]
                pool = deque(make_chunks(chain))
                procs = [env.process(worker(t, chain, pool),
                                     name=f"sp:q{query_id}t{t}")
                         for t in range(k)]
                yield env.all_of(procs)
                for thread, exit_time in zip(threads, exited):
                    thread.no_work += env.now - exit_time
            metrics.response_time = env.now - execution.start_time
            execution.done = True

        execution.finished = env.process(driver(),
                                         name=f"sp:driver:q{query_id}")
        return execution

    def collect(self, execution: SPExecution,
                queueing_delay: float = 0.0) -> ExecutionResult:
        """Assemble the result after ``execution.finished`` has fired."""
        metrics = execution.metrics
        metrics.queueing_delay = queueing_delay
        metrics.fold_threads(execution.threads)
        execution.substrate.take_device_waits(execution.wait_key, metrics)
        metrics.result_tuples = execution.results
        return ExecutionResult(
            plan_label=self.plan.label,
            strategy="SP",
            config_label=self.config.describe(),
            response_time=metrics.response_time,
            metrics=metrics,
            queueing_delay=queueing_delay,
        )
