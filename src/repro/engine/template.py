"""Execution template: what every execution of one plan has in common.

Section 3.1 of the paper allocates one thread per processor per query so
that "we do not have the traditional start-up overhead"; the simulator
should not put that overhead back on the host.  Almost everything an
:class:`~repro.engine.context.ExecutionContext` wires up is a pure
function of ``(plan, machine, params-sans-seed)``: which operators run
where and behind which predecessors, which cells each producer routes to
and with how many buckets, the opening credit window of every output
channel, and the disk-major trigger chunks of every scan on every node.
An :class:`ExecutionTemplate` computes all of that **once**; a context
*instantiates* it — fresh queues, runtimes and channels around shared
read-only tables.

The per-query seed is consumed by exactly two families of named streams
(``router:<op>`` and ``trigger:<op>:<node>``), each drawn from exactly
once, for one ``shuffle`` of a Zipf weight vector.  So:

* at ``skew.redistribution == 0`` every weight is equal, the shuffle
  changes nothing, and *nothing* in a context depends on the seed: the
  template holds the finished :class:`~repro.engine.routing.Router`\\ s and
  per-queue trigger shares, and a query creates no RNG stream at all;
* at ``theta > 0`` only the permutation is per query: the context shuffles
  a copy of the template's unshuffled vector on the same stream, which is
  what ``zipf_weights(n, theta, rng)`` does, value for value.

**Ownership.**  A template belongs to whoever runs the queries and is
built lazily, on the first launch that instantiates one (SP reads none):
the serving coordinator keeps one per (plan, planned node count) for the
lifetime of the run; a :class:`~repro.engine.executor.QueryExecutor` run
alone builds a private one per launch and lets go of it once the context
is instantiated, as the context itself does after seeding — the running
query's queues then release each trigger chunk as it is consumed.  There
is deliberately no process-wide store: the trigger chunks of a large plan
are megabytes, and a template that outlives its use holds all of them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from ..catalog.skew import proportional_split, zipf_weights
from ..optimizer.operator_tree import Operator, OpKind
from ..optimizer.plan import ParallelExecutionPlan
from ..sim.machine import MachineConfig
from .activation import TriggerActivation
from .params import ExecutionParams
from .routing import Router, consumer_cells

__all__ = ["ExecutionTemplate", "Route", "TriggerSeed", "queue_shares"]


class Route(NamedTuple):
    """One tuple-producing operator's outbound path."""

    op_id: int
    #: None for the root operator (results go to the sink).
    consumer_id: Optional[int]
    #: over the consumer's cells, bucket weights unpermuted; None for the root.
    router: Optional[Router]
    #: per home node of the producer: ``(node_id, opening credit per cell)``.
    channels: tuple[tuple[int, tuple[int, ...]], ...]


class TriggerSeed(NamedTuple):
    """One scan's trigger activations on one node (never empty)."""

    node_id: int
    #: disk-major: a queue's share covers one disk (or a contiguous run of
    #: disks), giving consuming threads stream affinity — consecutive
    #: requests per disk stay sequential and tightly spaced.  Threads that
    #: need more I/O parallelism absorb triggers *disk-aware* instead (see
    #: ``ExecutionThread._select_trigger_of``).
    chunks: tuple[TriggerActivation, ...]
    #: per scan queue, under unpermuted weights; ``()`` when the template
    #: permutes (``theta > 0``: the split is per query).
    shares: tuple[tuple[TriggerActivation, ...], ...]


def queue_shares(chunks: tuple, weights: Sequence[float]) -> tuple:
    """Split ``chunks`` into contiguous per-queue runs proportional to
    ``weights`` (the paper's trigger-side redistribution skew, Section
    5.2.2, when the weights are a permuted Zipf vector)."""
    shares = []
    cursor = 0
    for count in proportional_split(len(chunks), weights):
        shares.append(chunks[cursor:cursor + count])
        cursor += count
    return tuple(shares)


class ExecutionTemplate:
    """The seed-independent part of executing ``plan`` on ``config``."""

    def __init__(self, plan: ParallelExecutionPlan, config: MachineConfig,
                 params: ExecutionParams):
        max_node = max(plan.node_set)
        if max_node >= config.nodes:
            raise ValueError(
                f"plan references node {max_node} but the machine has only "
                f"{config.nodes} nodes"
            )
        self.plan = plan
        self.config = config
        #: the seed of these params is never read.
        self.params = params
        self.theta = params.skew.redistribution
        #: whether each query draws its own permutation of the Zipf weights.
        self.permutes = self.theta > 0
        sizes = {rel.tuple_size for rel in plan.graph.relations.values()}
        self.tuple_size = max(sizes) if sizes else 100
        #: operator-runtime skeletons, in plan order.
        self.operators: tuple[tuple[Operator, tuple, frozenset], ...] = tuple(
            (op, plan.homes[op.op_id], plan.schedule.predecessors_of(op.op_id))
            for op in plan.operators
        )
        #: consumer op -> its unique pipelined producer op.
        self.producer_of: dict[int, int] = {
            op.consumer_id: op.op_id for op in plan.operators
            if op.consumer_id is not None
        }
        self._vectors: dict[int, tuple[float, ...]] = {}
        self.routes = tuple(self._routes())
        #: per scan, in plan order: ``(op_id, seeds of its non-empty nodes)``.
        self.scans = tuple(self._scans())

    def fits(self, params: ExecutionParams) -> bool:
        """Whether ``params`` differ from the template's in the seed only."""
        mine = self.params
        return params is mine or params.with_seed(mine.seed) == mine

    def zipf_vector(self, n: int) -> tuple[float, ...]:
        """The unshuffled Zipf weights over ``n`` cells at this theta."""
        vector = self._vectors.get(n)
        if vector is None:
            vector = self._vectors[n] = tuple(zipf_weights(n, self.theta))
        return vector

    def _routes(self):
        k = self.config.processors_per_node
        window = self.params.credit_window
        for op, home, _predecessors in self.operators:
            if op.kind is OpKind.BUILD:
                continue  # builds output a hash table, not a tuple stream
            router = None
            if op.consumer_id is not None:
                consumer_home = self.plan.homes[op.consumer_id]
                router = Router(
                    consumer_cells(consumer_home, k),
                    self.params.buckets_for_home(len(consumer_home) * k),
                    self.theta, None,
                )
            cells = router.cells if router is not None else ()
            yield Route(op.op_id, op.consumer_id, router, tuple(
                (node_id, tuple(window if cell[0] != node_id else 0
                                for cell in cells))
                for node_id in home
            ))

    def _scans(self):
        k = self.config.processors_per_node
        page_size = self.config.page_size
        per_trigger = self.params.pages_per_trigger
        for op, home, _predecessors in self.operators:
            if op.kind is not OpKind.SCAN:
                continue
            placement = self.plan.placements[op.relation.name]
            tuples_per_page = op.relation.tuples_per_page(page_size)
            seeds = []
            for node_id in home:
                chunks = []
                for disk_id, disk_tuples in enumerate(
                        placement.disk_shares(node_id)):
                    if disk_tuples == 0:
                        continue
                    pages = math.ceil(disk_tuples / tuples_per_page)
                    n_chunks = math.ceil(pages / per_trigger)
                    page_shares = proportional_split(pages, [1.0] * n_chunks)
                    tuple_shares = proportional_split(disk_tuples, page_shares)
                    chunks.extend(
                        TriggerActivation(op_id=op.op_id, disk_id=disk_id,
                                          pages=chunk_pages,
                                          tuples=chunk_tuples)
                        for chunk_pages, chunk_tuples in zip(page_shares,
                                                             tuple_shares)
                        if chunk_pages
                    )
                if chunks:
                    chunks = tuple(chunks)
                    shares = () if self.permutes else queue_shares(
                        chunks, self.zipf_vector(k)
                    )
                    seeds.append(TriggerSeed(node_id, chunks, shares))
            yield op.op_id, tuple(seeds)
