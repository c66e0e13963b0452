"""Macro-expansion: join trees become operator trees (Section 2.2).

"The operator tree results from the 'macro-expansion' of the join tree
[Hassan94].  Nodes represent atomic operators that implement relational
algebra and edges represent dataflow."  Three operators per hash join
method: **scan** (read a base relation), **build** (hash the building
input), **probe** (stream the probing input against the hash table).

Edge kinds:

* *pipelinable* — tuples flow one-at-a-time: scan→build, scan→probe,
  probe→build, probe→probe;
* *blocking* — the hash table: build→probe of the same join ("there is
  always a blocking edge between build and probe").

Maximal pipeline chains (fragments [Shekita93] / tasks [Hong92]) are the
connected components under pipelinable edges; because every operator here
has at most one pipelined input and one pipelined output, chains are
*paths*: ``scan → probe* → (build | query result)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from ..catalog.relation import Relation
from .cost import CardinalityEstimator
from .join_tree import BaseNode, JoinTree

__all__ = [
    "OpKind",
    "EdgeKind",
    "Operator",
    "Edge",
    "PipelineChain",
    "OperatorTree",
    "macro_expand",
]


class OpKind(enum.Enum):
    """Atomic operator kinds of the parallel hash-join method."""

    SCAN = "scan"
    BUILD = "build"
    PROBE = "probe"


class EdgeKind(enum.Enum):
    """Dataflow edge kinds (Section 2.2)."""

    PIPELINE = "pipeline"
    BLOCKING = "blocking"


@dataclass
class Operator:
    """One atomic operator of the expanded tree.

    Cardinalities are *estimates at expansion time* (exact when the
    estimator is exact); the engine re-derives true per-node counts from
    placements at execution time.

    ``fanout`` is the expected output tuples per input tuple:
    ``selectivity`` for scans, ``join_selectivity * |build input|`` for
    probes, 0 for builds (their output is the blocking hash table).
    """

    op_id: int
    kind: OpKind
    label: str
    relation: Optional[Relation] = None
    join_id: Optional[int] = None
    consumer_id: Optional[int] = None
    build_id: Optional[int] = None
    input_cardinality: float = 0.0
    output_cardinality: float = 0.0

    @property
    def fanout(self) -> float:
        """Expected output tuples per input tuple."""
        if self.input_cardinality <= 0:
            return 0.0
        return self.output_cardinality / self.input_cardinality

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Edge:
    """A dataflow edge between two operators."""

    producer_id: int
    consumer_id: int
    kind: EdgeKind


@dataclass
class PipelineChain:
    """A maximal pipeline chain: ``scan → probe* → (build | result)``.

    ``source_id`` is the driving scan; ``terminal_id`` the last operator
    (a build, or the root probe producing the query result).
    """

    chain_id: int
    op_ids: tuple[int, ...]

    @property
    def source_id(self) -> int:
        return self.op_ids[0]

    @property
    def terminal_id(self) -> int:
        return self.op_ids[-1]

    def __contains__(self, op_id: int) -> bool:
        return op_id in self.op_ids

    def __len__(self) -> int:
        return len(self.op_ids)


class OperatorTree:
    """The expanded operator tree: operators, dataflow edges, chains."""

    def __init__(self, operators: list[Operator], edges: list[Edge], root_id: int):
        self.operators: dict[int, Operator] = {op.op_id: op for op in operators}
        if len(self.operators) != len(operators):
            raise ValueError("duplicate operator ids")
        self.edges = list(edges)
        if root_id not in self.operators:
            raise ValueError(f"root {root_id} is not an operator")
        self.root_id = root_id

        self._pipeline_consumer: dict[int, int] = {}
        self._pipeline_producers: dict[int, list[int]] = {
            op_id: [] for op_id in self.operators
        }
        self._blocking_consumers: dict[int, list[int]] = {
            op_id: [] for op_id in self.operators
        }
        for edge in self.edges:
            if edge.producer_id not in self.operators or edge.consumer_id not in self.operators:
                raise ValueError(f"edge references unknown operator: {edge}")
            if edge.kind is EdgeKind.PIPELINE:
                if edge.producer_id in self._pipeline_consumer:
                    raise ValueError(
                        f"operator {edge.producer_id} has two pipelined consumers"
                    )
                self._pipeline_consumer[edge.producer_id] = edge.consumer_id
                self._pipeline_producers[edge.consumer_id].append(edge.producer_id)
            else:
                self._blocking_consumers[edge.producer_id].append(edge.consumer_id)
        self.chains: list[PipelineChain] = self._compute_chains()
        self._chain_of: dict[int, int] = {}
        for chain in self.chains:
            for op_id in chain.op_ids:
                self._chain_of[op_id] = chain.chain_id

    # -- structure queries ----------------------------------------------------

    def op(self, op_id: int) -> Operator:
        """Operator by id."""
        return self.operators[op_id]

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators.values())

    def __len__(self) -> int:
        return len(self.operators)

    def scans(self) -> list[Operator]:
        """All scan operators, by id order."""
        return [op for op in self._sorted_ops() if op.kind is OpKind.SCAN]

    def builds(self) -> list[Operator]:
        """All build operators, by id order."""
        return [op for op in self._sorted_ops() if op.kind is OpKind.BUILD]

    def probes(self) -> list[Operator]:
        """All probe operators, by id order."""
        return [op for op in self._sorted_ops() if op.kind is OpKind.PROBE]

    def _sorted_ops(self) -> list[Operator]:
        return [self.operators[i] for i in sorted(self.operators)]

    def pipeline_producers(self, op_id: int) -> list[int]:
        """Operators feeding ``op_id`` through pipelined edges."""
        return list(self._pipeline_producers[op_id])

    def build_of(self, probe_id: int) -> int:
        """The build operator whose hash table ``probe_id`` probes."""
        probe = self.operators[probe_id]
        if probe.kind is not OpKind.PROBE or probe.build_id is None:
            raise ValueError(f"operator {probe_id} is not a probe")
        return probe.build_id

    def probe_of(self, build_id: int) -> int:
        """The probe operator fed by ``build_id``'s hash table."""
        consumers = self._blocking_consumers[build_id]
        if len(consumers) != 1:
            raise ValueError(f"operator {build_id} is not a build")
        return consumers[0]

    # -- chains ---------------------------------------------------------------

    def _compute_chains(self) -> list[PipelineChain]:
        chains = []
        sources = [
            op_id for op_id in sorted(self.operators)
            if not self._pipeline_producers[op_id]
        ]
        covered: set[int] = set()
        for chain_id, source in enumerate(sources):
            ops = [source]
            current = source
            while True:
                nxt = self._pipeline_consumer.get(current)
                if nxt is None:
                    break
                ops.append(nxt)
                current = nxt
            chains.append(PipelineChain(chain_id, tuple(ops)))
            covered.update(ops)
        if covered != set(self.operators):
            missing = set(self.operators) - covered
            raise ValueError(f"operators not on any pipeline chain: {missing}")
        return chains

    def chain_dependencies(self) -> dict[int, set[int]]:
        """chain_id -> chain_ids that must complete builds before it runs.

        Chain B depends on chain A when some probe of B uses a hash table
        built by an operator of A (the basis for scheduling heuristics 1
        and 2).
        """
        deps: dict[int, set[int]] = {chain.chain_id: set() for chain in self.chains}
        for op in self.operators.values():
            if op.kind is OpKind.PROBE:
                build_chain = self._chain_of[self.build_of(op.op_id)]
                probe_chain = self._chain_of[op.op_id]
                if build_chain != probe_chain:
                    deps[probe_chain].add(build_chain)
        return deps


def macro_expand(tree: JoinTree, estimator: CardinalityEstimator,
                 scan_selectivity: float = 1.0) -> OperatorTree:
    """Expand a join tree into its operator tree.

    Operators are labelled like the paper's Figure 2 (``Scan1``,
    ``Build2``, ...): scans numbered left-to-right (build side first),
    joins numbered *in-order* (build subtree, then the node, then the
    probe subtree) — which reproduces Figure 2 exactly, where the top
    join of the four-relation bushy tree is Build2/Probe2 and the
    right-hand T x U join is Build3/Probe3.
    ``scan_selectivity`` applies a selection to every base-relation scan
    (1.0 = scan everything, the experiments' setting).
    """
    if not 0 < scan_selectivity <= 1.0:
        raise ValueError(f"scan selectivity must be in (0, 1], got {scan_selectivity}")

    operators: list[Operator] = []
    edges: list[Edge] = []
    next_id = 0
    scan_count = 0
    join_count = 0

    def new_id() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def expand(node: JoinTree) -> int:
        nonlocal scan_count, join_count
        if isinstance(node, BaseNode):
            scan_count += 1
            card = estimator.cardinality(node)
            op = Operator(
                op_id=new_id(),
                kind=OpKind.SCAN,
                label=f"Scan{scan_count}",
                relation=node.relation,
                input_cardinality=card,
                output_cardinality=card * scan_selectivity,
            )
            operators.append(op)
            return op.op_id

        build_src = expand(node.build)
        join_count += 1
        join_id = join_count  # in-order numbering (see docstring)
        probe_src = expand(node.probe)

        build_in = next(o for o in operators if o.op_id == build_src).output_cardinality
        probe_in = next(o for o in operators if o.op_id == probe_src).output_cardinality
        out_card = build_in * probe_in * node.selectivity

        build = Operator(
            op_id=new_id(),
            kind=OpKind.BUILD,
            label=f"Build{join_id}",
            join_id=join_id,
            input_cardinality=build_in,
            output_cardinality=0.0,
        )
        operators.append(build)
        probe = Operator(
            op_id=new_id(),
            kind=OpKind.PROBE,
            label=f"Probe{join_id}",
            join_id=join_id,
            build_id=build.op_id,
            input_cardinality=probe_in,
            output_cardinality=out_card,
        )
        operators.append(probe)

        for src, dst in ((build_src, build.op_id), (probe_src, probe.op_id)):
            edges.append(Edge(src, dst, EdgeKind.PIPELINE))
            producer = next(o for o in operators if o.op_id == src)
            producer.consumer_id = dst
        edges.append(Edge(build.op_id, probe.op_id, EdgeKind.BLOCKING))
        return probe.op_id

    root_id = expand(tree)
    return OperatorTree(operators, edges, root_id)
