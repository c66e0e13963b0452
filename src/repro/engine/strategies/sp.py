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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...catalog.skew import proportional_split
from ...optimizer.operator_tree import OpKind, PipelineChain
from ...optimizer.plan import ParallelExecutionPlan
from ...sim.core import DEFAULT_TAG, Environment
from ...sim.disk import Disk
from ...sim.machine import MachineConfig, make_processors
from ..metrics import ExecutionMetrics, ExecutionResult
from ..params import ExecutionParams
from .base import StrategyError

__all__ = ["SynchronousPipeliningExecutor"]


@dataclass
class _Chunk:
    """One shared-pool unit of scan work: pages on one disk."""

    disk_id: int
    pages: int
    tuples: int


class SynchronousPipeliningExecutor:
    """Executes a plan with the SP model on one SM-node."""

    def __init__(self, plan: ParallelExecutionPlan, config: MachineConfig,
                 params: ExecutionParams | None = None):
        if config.nodes != 1:
            raise StrategyError(
                "SP is a shared-memory model: it requires a single SM-node "
                f"(got {config.nodes}); the paper notes it 'cannot be "
                "implemented in shared-nothing'"
            )
        self.plan = plan
        self.config = config
        self.params = params or ExecutionParams()
        self.metrics = ExecutionMetrics()

    def run(self) -> ExecutionResult:
        """Execute all pipeline chains; returns the execution result."""
        env = Environment()
        k = self.config.processors_per_node
        disks = [Disk(env, self.params.disk, name=f"d0.{d}") for d in range(k)]
        processors = make_processors(env, self.config)[0]
        self.launch(env, disks, processors)
        env.run()
        return self.collect(start_time=0.0, end_time=env.now)

    def launch(self, env: Environment, disks: list[Disk],
               processors, query_id: int = 0, service_class=None):
        """Start the SP execution inside ``env``; return the driver process.

        ``disks`` and ``processors`` are node 0's shared hardware (SP is a
        single-SM-node model).  The returned driver is a
        :class:`~repro.sim.core.Process`, i.e. an event that fires at
        query completion — the serving layer's coordinator waits on it.
        CPU charges go through the shared processors — tagged with
        ``service_class``'s weight/priority, so under a non-FIFO
        discipline concurrent SP queries are scheduled exactly like
        DP/FP threads of the same class.
        """
        params = self.params
        cost = params.cost
        k = self.config.processors_per_node
        tree = self.plan.operators
        charge_tag = (service_class.charge_tag(query_id)
                      if service_class is not None else None)

        from ...optimizer.scheduling import chain_total_order
        order = chain_total_order(tree)

        busy = [0.0] * k
        results = [0.0]
        scanned = [0]
        contention = [0.0]
        self._busy = busy
        self._results = results
        self._scanned = scanned
        self._contention = contention
        self._thread_count = k
        self._disks = disks
        self._wait_key = (charge_tag or DEFAULT_TAG).key

        def charge(thread_index: int, instructions: float):
            seconds = instructions / cost.mips
            busy[thread_index] += seconds
            started = env.now
            yield from processors[thread_index].use(seconds, charge_tag)
            waited = env.now - started - seconds
            if waited > 1e-12:
                contention[0] += waited

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

        def chain_ops(chain: PipelineChain):
            return [tree.op(op_id) for op_id in chain.op_ids]

        def process_tuples(thread_index: int, chain: PipelineChain, tuples: float):
            """Carry ``tuples`` through the chain by procedure calls."""
            instructions = 0.0
            n = tuples
            ops = chain_ops(chain)
            # Scan cost is charged by the caller; walk the downstream ops.
            n *= ops[0].fanout  # scan selectivity
            for op in ops[1:]:
                if op.kind is OpKind.PROBE:
                    out = n * op.fanout
                    instructions += (n * cost.probe_instructions_per_tuple
                                     + out * cost.result_instructions_per_tuple)
                    n = out
                else:  # terminal build
                    instructions += n * cost.build_instructions_per_tuple
            if ops[-1].op_id == tree.root_id:
                results[0] += n
            return instructions

        def worker(thread_index: int, chain: PipelineChain, pool):
            """Double-buffered scan + synchronous pipeline execution.

            One charge per chunk: the scan and every downstream
            operator's per-tuple work fold into a single ``use``.
            """
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
                yield handle.event
                scanned[0] += chunk.tuples
                instructions = chunk.tuples * cost.scan_instructions_per_tuple
                instructions += process_tuples(thread_index, chain, chunk.tuples)
                yield from charge(thread_index, instructions)

        def driver():
            from collections import deque
            for chain_id in order:
                chain = tree.chains[chain_id]
                pool = deque(make_chunks(chain))
                procs = [env.process(worker(t, chain, pool),
                                     name=f"sp:q{query_id}t{t}")
                         for t in range(k)]
                yield env.all_of(procs)

        return env.process(driver(), name=f"sp:driver:q{query_id}")

    def collect(self, start_time: float, end_time: float,
                queueing_delay: float = 0.0) -> ExecutionResult:
        """Assemble the result after the driver process has finished."""
        metrics = self.metrics
        metrics.queueing_delay = queueing_delay
        metrics.response_time = end_time - start_time
        metrics.thread_count = self._thread_count
        # Left folds: float ``sum()`` rounds differently from 3.12 on.
        busy = disk_wait = 0.0
        for seconds in self._busy:
            busy += seconds
        for disk in self._disks:
            disk_wait += disk.wait_time_for(self._wait_key)
        metrics.thread_busy_time = busy
        metrics.cpu_contention_time = self._contention[0]
        metrics.disk_wait_time = disk_wait
        metrics.tuples_scanned = self._scanned[0]
        metrics.result_tuples = int(round(self._results[0]))
        return ExecutionResult(
            plan_label=self.plan.label,
            strategy="SP",
            config_label=self.config.describe(),
            response_time=metrics.response_time,
            metrics=metrics,
            queueing_delay=queueing_delay,
        )
