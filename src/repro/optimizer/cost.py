"""Cost model: per-tuple instruction costs, cardinality estimation, distortion.

The same constants drive both layers, as in the paper:

* the **optimizer** ranks join trees and sizes FP's static processor
  allocation from *estimated* costs (possibly distorted — Figure 7);
* the **engine** charges *true* costs in virtual time while simulating
  operator execution.

Per-tuple instruction counts are in the range used by the parallel-DBMS
simulation literature the paper builds on ([Mehta95, Shekita93]); the exact
values only set the CPU/IO balance, not who wins — which is what the
reproduction must preserve.  Building costs more per tuple than probing
(a hash-table insert copies the tuple; a probe only hashes and compares),
which also makes the optimizer prefer hashing the smaller input.

Cost-model *error* (Figure 7): "the cardinalities of base and intermediate
relations are distorted by a value chosen in [-e, +e], which propagates
errors in estimating the cost of operators and the number of allocated
processors."  We distort base cardinalities multiplicatively and let the
estimator propagate them upward.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..query.graph import QueryGraph
from ..sim.disk import DiskParams
from .join_tree import BaseNode, JoinTree

__all__ = ["CostParams", "CardinalityEstimator", "distort_cardinalities",
           "CostModel", "ESTIMATE_MIPS"]

#: the CPU speed the optimizer prices disk seconds at (Section 5.1.1's
#: 40 MIPS).  The engine charges the simulated machine's own speed,
#: ``MachineConfig.mips``; the estimate is fixed, like the
#: :class:`~repro.sim.disk.DiskParams` the cost model prices I/O with.
ESTIMATE_MIPS = 40e6


@dataclass(frozen=True)
class CostParams:
    """Instruction-count constants of the execution model.

    Counts, not times: the engine turns them into seconds at the
    simulated machine's speed (``MachineConfig.mips``).

    ``activation_overhead_instructions`` is the queue-management price DP
    pays per activation (enqueue + dequeue + selection); it is the
    "small performance difference ... due to thread interference and queue
    management" between DP and SP in Figure 6.
    ``foreign_queue_penalty_instructions`` is the extra interference cost
    of consuming from a non-primary queue (Section 3.1's motivation for
    primary queues).
    """

    scan_instructions_per_tuple: int = 300
    build_instructions_per_tuple: int = 200
    probe_instructions_per_tuple: int = 100
    result_instructions_per_tuple: int = 100
    activation_overhead_instructions: int = 150
    foreign_queue_penalty_instructions: int = 50


class CardinalityEstimator:
    """Estimates join-tree cardinalities from (possibly distorted) base cards.

    ``base_cards`` overrides the true base cardinalities; when omitted the
    estimator is exact (the engine uses the exact variant, FP's allocation
    under Figure 7 uses a distorted one).
    """

    def __init__(self, graph: QueryGraph,
                 base_cards: Optional[dict[str, float]] = None):
        self.graph = graph
        self.base_cards = dict(base_cards) if base_cards is not None else {
            name: float(rel.cardinality) for name, rel in graph.relations.items()
        }
        self._memo: dict[str, float] = {}

    def cardinality(self, tree: JoinTree) -> float:
        """Estimated output cardinality of ``tree``."""
        key = tree.signature
        if key not in self._memo:
            if isinstance(tree, BaseNode):
                value = self.base_cards[tree.relation.name]
            else:
                value = (
                    self.cardinality(tree.build)
                    * self.cardinality(tree.probe)
                    * tree.selectivity
                )
            self._memo[key] = value
        return self._memo[key]


def distort_cardinalities(graph: QueryGraph, error_rate: float,
                          rng: random.Random) -> dict[str, float]:
    """Base cardinalities distorted by a factor uniform in ``[1-e, 1+e]``.

    ``error_rate`` is a fraction (0.3 = the paper's 30%).  Distortion is
    floored at a small positive value so estimates stay usable.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error rate must be in [0, 1], got {error_rate}")
    distorted = {}
    for name, relation in graph.relations.items():
        factor = 1.0 + rng.uniform(-error_rate, error_rate)
        distorted[name] = max(1.0, relation.cardinality * factor)
    return distorted


class CostModel:
    """Operator and plan cost estimation on top of :class:`CostParams`.

    Costs are expressed in *instructions* (CPU) plus disk *seconds*
    converted to instruction-equivalents at :data:`ESTIMATE_MIPS`, so a
    single scalar ranks plans.
    """

    def __init__(self, params: Optional[CostParams] = None,
                 disk: Optional[DiskParams] = None,
                 tuple_size: int = 100):
        self.params = params or CostParams()
        self.disk = disk or DiskParams()
        self.tuple_size = tuple_size

    # -- per-operator costs (instructions) --------------------------------

    def scan_instructions(self, cardinality: float) -> float:
        """CPU instructions to scan + select ``cardinality`` tuples."""
        return cardinality * self.params.scan_instructions_per_tuple

    def scan_io_seconds(self, cardinality: float) -> float:
        """Disk seconds to stream the relation's pages (single stream).

        Pure transfer time: with the paper's 8-page I/O cache the
        per-request latency and seek are amortized away on sequential
        scans, and keeping them out makes the estimate scale-invariant.
        """
        nbytes = cardinality * self.tuple_size
        return nbytes / self.disk.transfer_rate

    def build_instructions(self, cardinality: float) -> float:
        """CPU instructions to insert ``cardinality`` tuples in hash tables."""
        return cardinality * self.params.build_instructions_per_tuple

    def probe_instructions(self, input_cardinality: float,
                           output_cardinality: float) -> float:
        """CPU instructions to probe ``input`` tuples, yielding ``output``."""
        return (
            input_cardinality * self.params.probe_instructions_per_tuple
            + output_cardinality * self.params.result_instructions_per_tuple
        )

    # -- plan-level estimates ----------------------------------------------

    def join_tree_cost(self, tree: JoinTree,
                       estimator: Optional[CardinalityEstimator] = None,
                       graph: Optional[QueryGraph] = None) -> float:
        """Total sequential work of ``tree`` in instruction-equivalents.

        The bushy search's ranking cost, summed over one whole tree (the
        population builder's pre-search bound prices its trees with it).
        Counts each scan (CPU + I/O), each build and each probe once.
        """
        if estimator is None:
            if graph is None:
                raise ValueError("need an estimator or a graph")
            estimator = CardinalityEstimator(graph)
        total = 0.0
        seen_leaves = set()

        def visit(node: JoinTree) -> float:
            nonlocal total
            if isinstance(node, BaseNode):
                card = estimator.cardinality(node)
                if node.relation.name not in seen_leaves:
                    seen_leaves.add(node.relation.name)
                    total += self.scan_instructions(card)
                    total += self.scan_io_seconds(card) * ESTIMATE_MIPS
                return card
            build_card = visit(node.build)
            probe_card = visit(node.probe)
            out_card = build_card * probe_card * node.selectivity
            total += self.build_instructions(build_card)
            total += self.probe_instructions(probe_card, out_card)
            return out_card

        visit(tree)
        return total
