"""Parallel execution plans: the input to the execution model.

Section 2.3: "Given a parallel execution plan which consists of an operator
tree, operator scheduling and operator homes, the problem is to produce an
execution on a hierarchical architecture which minimizes response time."

:class:`ParallelExecutionPlan` bundles exactly those three components plus
the physical inputs the engine needs (relation placements) and the
optimizer's per-operator work estimates (used by FP's static processor
allocation; Figure 7 re-derives them from distorted cardinalities).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional

from ..catalog.partitioning import RelationPlacement, place_relation
from ..query.graph import QueryGraph
from ..sim.machine import MachineConfig
from .cost import CardinalityEstimator, CostModel, distort_cardinalities
from .homes import all_nodes_homes, validate_homes
from .join_tree import JoinTree, validate_tree
from .operator_tree import OperatorTree, OpKind, macro_expand
from .scheduling import Schedule, build_schedule

__all__ = ["ParallelExecutionPlan", "compile_plan", "estimate_operator_work"]


def estimate_operator_work(tree: OperatorTree, cost_model: CostModel,
                           cards: Optional[Mapping[int, tuple[float, float]]] = None,
                           ) -> dict[int, float]:
    """Estimated instruction-equivalents per operator.

    FP's static processor allocation divides processors "based on a ratio
    of the estimated complexity, including CPU and I/O costs, of each
    operator" (Section 5.2.1).  The *processor-relevant* complexity of a
    scan is its CPU work plus the asynchronous-I/O issue cost: the page
    transfers themselves run on the per-processor disks concurrently with
    computation, so counting them as processor work would systematically
    over-allocate threads to disk-bound scans and starve the rest of the
    chain.

    ``cards`` optionally overrides (input, output) cardinalities per
    operator (the Figure 7 distorted estimates); defaults to the
    expansion-time estimates stored on the operators.
    """
    work: dict[int, float] = {}
    for op in tree:
        if cards is not None and op.op_id in cards:
            in_card, out_card = cards[op.op_id]
        else:
            in_card, out_card = op.input_cardinality, op.output_cardinality
        if op.kind is OpKind.SCAN:
            work[op.op_id] = cost_model.scan_instructions(in_card)
        elif op.kind is OpKind.BUILD:
            work[op.op_id] = cost_model.build_instructions(in_card)
        else:
            work[op.op_id] = cost_model.probe_instructions(in_card, out_card)
    return work


@dataclass
class ParallelExecutionPlan:
    """Operator tree + operator scheduling + operator homes (+ physics).

    Attributes
    ----------
    graph:
        The query's predicate graph (true base cardinalities).
    join_tree:
        The bushy join tree chosen by the optimizer.
    operators:
        The macro-expanded operator tree.
    schedule:
        Blocking constraints (partial order on operators).
    homes:
        op_id -> sorted tuple of SM-node ids allowed to execute it.
    placements:
        Relation name -> physical placement.
    estimated_work:
        op_id -> estimated instructions; feeds FP's processor allocation.
        May be distorted relative to the truth (Figure 7).
    label:
        Human-readable identifier used by the experiment reports.
    """

    graph: QueryGraph
    join_tree: JoinTree
    operators: OperatorTree
    schedule: Schedule
    homes: dict[int, tuple[int, ...]]
    placements: dict[str, RelationPlacement]
    estimated_work: dict[int, float]
    label: str = "plan"

    def __post_init__(self) -> None:
        validate_tree(self.join_tree, self.graph)
        validate_homes(self.operators, self.homes, self.placements)
        missing = [op.op_id for op in self.operators if op.op_id not in self.estimated_work]
        if missing:
            raise ValueError(f"operators without work estimates: {missing}")

    @property
    def node_set(self) -> tuple[int, ...]:
        """All nodes participating in the plan (union of homes)."""
        nodes: set[int] = set()
        for home in self.homes.values():
            nodes.update(home)
        return tuple(sorted(nodes))

    def with_estimates(self, estimated_work: Mapping[int, float],
                       label: Optional[str] = None) -> "ParallelExecutionPlan":
        """A copy of this plan with different work estimates (Figure 7)."""
        return ParallelExecutionPlan(
            graph=self.graph,
            join_tree=self.join_tree,
            operators=self.operators,
            schedule=self.schedule,
            homes=self.homes,
            placements=self.placements,
            estimated_work=dict(estimated_work),
            label=label or self.label,
        )

    def distorted(self, error_rate: float, rng: random.Random,
                  cost_model: Optional[CostModel] = None) -> "ParallelExecutionPlan":
        """This plan with cost estimates distorted by ``error_rate``.

        Reproduces Figure 7's methodology: "the cardinalities of base and
        intermediate relations are distorted by a value chosen in
        [-e, +e]".  Base cardinalities are distorted multiplicatively and
        propagate through the estimator; each intermediate result then
        receives its own independent distortion on top (distorting only
        the bases would partially cancel along a pipeline and understate
        the allocation error).  The *true* execution (operator tree,
        cardinalities, placements) is unchanged — only FP's allocation
        weights move.
        """
        cost_model = cost_model or CostModel()
        distorted_bases = distort_cardinalities(self.graph, error_rate, rng)
        estimator = CardinalityEstimator(self.graph, distorted_bases)
        distorted_tree = macro_expand(self.join_tree, estimator)

        def jitter() -> float:
            return max(0.05, 1.0 + rng.uniform(-error_rate, error_rate))

        cards = {}
        for op in distorted_tree:
            if op.kind is OpKind.SCAN:
                cards[op.op_id] = (op.input_cardinality, op.output_cardinality)
            else:
                factor_in = jitter()
                factor_out = jitter()
                cards[op.op_id] = (
                    op.input_cardinality * factor_in,
                    op.output_cardinality * factor_out,
                )
        work = estimate_operator_work(self.operators, cost_model, cards)
        return self.with_estimates(
            work, label=f"{self.label}+err{error_rate:.0%}"
        )


def compile_plan(graph: QueryGraph, join_tree: JoinTree, config: MachineConfig,
                 cost_model: Optional[CostModel] = None,
                 label: str = "plan") -> ParallelExecutionPlan:
    """Compile a join tree into a full parallel execution plan.

    Applies the paper's experimental assumptions (Section 5.1.2): relations
    partitioned evenly across all SM-nodes and their disks (pages of
    ``config.page_size``), all nodes allocated to all operators, and the
    schedule under both of Section 2.2's heuristics (hash tables ready
    before their probes, pipeline chains one at a time).
    """
    cost_model = cost_model or CostModel()
    estimator = CardinalityEstimator(graph)
    operators = macro_expand(join_tree, estimator)
    schedule = build_schedule(operators)
    nodes = tuple(range(config.nodes))
    homes = all_nodes_homes(operators, nodes)
    placements = {
        name: place_relation(
            relation,
            home=nodes,
            disks_per_node=config.processors_per_node,
            page_size=config.page_size,
        )
        for name, relation in graph.relations.items()
    }
    estimated = estimate_operator_work(operators, cost_model)
    return ParallelExecutionPlan(
        graph=graph,
        join_tree=join_tree,
        operators=operators,
        schedule=schedule,
        homes=homes,
        placements=placements,
        estimated_work=estimated,
        label=label,
    )
