"""The evaluation workload: 20 queries × 2 bushy plans = 40 plans.

Section 5.1.2: "Without any constraint on query generation, we would
obtain very different executions which would make it difficult to give
meaningful conclusions.  Therefore, we constrain the generation of
operator trees so that the sequential response time is between 30 mn and
one hour.  Thus, we have produced 40 parallel execution plans."

This module reproduces that construction: generate candidate queries,
optimize each (top-2 bushy trees), estimate the sequential response time
with the cost model, and accept the query only if both plans fall inside
the band.  The band scales with the generator's ``scale`` (all modelled
costs are linear in tuple counts), so the default scale 0.01 accepts
queries whose full-size equivalents would run 30-60 sequential minutes —
exactly the paper's population, at simulable size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..optimizer.cost import ESTIMATE_MIPS, CardinalityEstimator, CostModel
from ..optimizer.join_tree import BaseNode, JoinNode, JoinTree, joins
from ..optimizer.plan import ParallelExecutionPlan, compile_plan
from ..optimizer.search import BushySearch
from ..query.generator import QueryGenerator, QueryGeneratorConfig
from ..query.graph import QueryGraph
from ..sim.machine import MachineConfig
from ..sim.rng import RandomStreams

__all__ = [
    "WorkloadConfig",
    "build_workload",
    "build_query_population",
    "Workload",
]

#: Sequential-cost band at scale 1.0, in estimated seconds.  The paper's
#: criterion is 30-60 *measured* sequential minutes, which includes
#: single-disk I/O for base data and all intermediate results; our
#: sequential estimate (BushySearch cost / MIPS) counts CPU plus
#: parallel-layout scan I/O only, so the same population — the
#: large-relation queries with intermediate volumes comparable to the
#: base data — lands at 450-900 estimated seconds.  The band is
#: calibrated to select exactly that population.
PAPER_BAND = (450.0, 900.0)


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload construction knobs.

    The defaults reproduce the paper's population at 1/100 scale: 20
    queries of 12 relations, two best bushy plans each, sequential time in
    the (scaled) 30-60 minute band.

    ``max_intermediate_ratio`` bounds the total intermediate-result volume
    relative to the base data.  The paper's population has the ratio ~3
    ("about 1.3 Gigabytes of base relations and about 4 Gigabytes of
    intermediate results"); without the bound, rare selectivity draws let
    one root probe dominate a plan with a 50x blow-up, which no strategy
    in the paper faced.
    """

    queries: int = 20
    plans_per_query: int = 2
    relations_per_query: int = 12
    scale: float = 0.01
    seed: int = 1996
    #: sequential response-time band at scale 1.0 (seconds); the effective
    #: band is multiplied by ``scale``.
    band: tuple[float, float] = PAPER_BAND
    #: accept only plans whose intermediate-to-base volume ratio is below
    #: this (the paper's population sits around 3).
    max_intermediate_ratio: float = 6.0
    #: give up after this many candidate queries (guards mis-tuned bands).
    max_candidates: int = 4000

    @property
    def effective_band(self) -> tuple[float, float]:
        low, high = self.band
        return (low * self.scale, high * self.scale)


@dataclass
class Workload:
    """A constructed plan population plus its provenance."""

    config: WorkloadConfig
    plans: list[ParallelExecutionPlan]
    accepted_queries: list[int]
    rejected_queries: int

    def __len__(self) -> int:
        return len(self.plans)


def _intermediate_bytes(graph: QueryGraph, tree: JoinTree) -> float:
    """Total bytes of all intermediate (join output) results of a tree."""
    estimator = CardinalityEstimator(graph)
    tuple_size = max(rel.tuple_size for rel in graph.relations.values())
    return sum(estimator.cardinality(join) for join in joins(tree)) * tuple_size


@dataclass(frozen=True)
class _Population:
    """Machine-independent part of a workload: queries and their trees."""

    entries: tuple[tuple[QueryGraph, tuple[JoinTree, ...], int], ...]
    rejected: int


#: relative slack of the bound's rejection test: tree shapes multiply the
#: same cardinalities in different orders, so equal exact costs differ by
#: ~1e-15 in floating point.
_BOUND_MARGIN = 1e-9


def _flipped(tree: JoinTree, target: JoinNode) -> JoinTree:
    """``tree`` with the build and probe sides of ``target`` swapped."""
    if tree is target:
        return JoinNode(tree.probe, tree.build, tree.selectivity)
    if isinstance(tree, BaseNode) or not target.relations <= tree.relations:
        return tree
    return JoinNode(_flipped(tree.build, target), _flipped(tree.probe, target),
                    tree.selectivity)


def _kth_cost_bound(graph: QueryGraph, cost_model: CostModel,
                    k: int) -> Optional[float]:
    """The largest cost among ``k`` distinct join trees of ``graph``.

    The search's ``k``-th best cost is at most this.  The trees are a
    greedy one (repeatedly join the two adjacent parts with the smallest
    output, hashing the side that makes the join cheaper) and ``k - 1``
    copies of it with one join's sides swapped, the root's first.  None
    when the graph has too few joins for ``k`` distinct trees.
    """
    if k > len(graph):
        return None
    estimator = CardinalityEstimator(graph)
    card = estimator.cardinality
    part: dict[str, JoinTree] = {
        name: BaseNode(graph.relation(name)) for name in graph.names
    }

    def output(edge) -> float:
        return (card(part[edge.left]) * card(part[edge.right])
                * edge.selectivity)

    def step(build: JoinTree, probe: JoinTree, out: float) -> float:
        return (cost_model.build_instructions(card(build))
                + cost_model.probe_instructions(card(probe), out))

    # The graph is a tree, so every edge joins two different parts.
    formed: list[JoinNode] = []
    edges = list(graph.edges)
    while edges:
        edge = min(edges, key=output)
        edges.remove(edge)
        build, probe = part[edge.left], part[edge.right]
        out = output(edge)
        if step(probe, build, out) < step(build, probe, out):
            build, probe = probe, build
        join = JoinNode(build, probe, edge.selectivity)
        formed.append(join)
        for name in join.relations:
            part[name] = join
    greedy = part[graph.names[0]]
    trees = [greedy] + [_flipped(greedy, join) for join in formed[::-1][:k - 1]]
    return max(cost_model.join_tree_cost(tree, estimator) for tree in trees)


def _below_band(graph: QueryGraph, cost_model: CostModel, k: int,
                low: float) -> bool:
    """Whether the search's ``k`` best trees surely run under ``low`` s."""
    bound = _kth_cost_bound(graph, cost_model, k)
    return (bound is not None
            and bound * (1 + _BOUND_MARGIN) / ESTIMATE_MIPS < low)


#: query selection is machine-independent and, for every candidate the
#: bound cannot turn away, an exact bushy search: memoize it per workload
#: configuration and per value of the cost model that ranks and
#: band-filters the candidates.
_POPULATION_CACHE: dict[tuple, _Population] = {}


def build_query_population(config: Optional[WorkloadConfig] = None,
                           cost_model: Optional[CostModel] = None) -> _Population:
    """Select the accepted queries and their top-k bushy trees (cached).

    A candidate whose :func:`_kth_cost_bound` already lies below the band
    is rejected without a search: the search's k-th best tree costs at
    most the bound, so the search would reject it too.  Only the rest,
    in practice the accepted queries, pay the exact search; the accepted
    set, its trees, their costs and ``rejected`` are those of searching
    every candidate.
    """
    config = config or WorkloadConfig()
    cost_model = cost_model or CostModel()
    key = (config, cost_model.params, cost_model.disk, cost_model.tuple_size)
    if key in _POPULATION_CACHE:
        return _POPULATION_CACHE[key]
    low, high = config.effective_band
    generator = QueryGenerator(
        RandomStreams(config.seed),
        QueryGeneratorConfig(
            relations_per_query=config.relations_per_query,
            scale=config.scale,
        ),
    )
    entries: list[tuple[QueryGraph, tuple[JoinTree, ...], int]] = []
    rejected = 0
    index = 0
    while len(entries) < config.queries:
        if index >= config.max_candidates:
            raise RuntimeError(
                f"exhausted {config.max_candidates} candidate queries with "
                f"only {len(entries)} accepted; widen the band "
                f"({low:.1f}..{high:.1f}s) or adjust the generator"
            )
        graph = generator.generate(index)
        index += 1
        if _below_band(graph, cost_model, config.plans_per_query, low):
            rejected += 1
            continue
        search = BushySearch(graph, cost_model=cost_model,
                             k=config.plans_per_query)
        candidates = search.run()
        if len(candidates) < config.plans_per_query:
            rejected += 1
            continue
        sequential = [c.cost / ESTIMATE_MIPS for c in candidates]
        if not all(low <= s <= high for s in sequential):
            rejected += 1
            continue
        base_bytes = graph.total_base_bytes()
        ratios = [
            _intermediate_bytes(graph, c.tree) / max(1, base_bytes)
            for c in candidates
        ]
        if not all(r <= config.max_intermediate_ratio for r in ratios):
            rejected += 1
            continue
        entries.append(
            (graph, tuple(c.tree for c in candidates), index - 1)
        )
    population = _Population(entries=tuple(entries), rejected=rejected)
    _POPULATION_CACHE[key] = population
    return population


def build_workload(machine: MachineConfig,
                   config: Optional[WorkloadConfig] = None,
                   cost_model: Optional[CostModel] = None) -> Workload:
    """Construct the 40-plan workload for a machine configuration.

    Plans are compiled against ``machine`` (placements over its nodes and
    disks); the underlying query population is cached across machines, so
    sweeping configurations (Figures 6, 8, 10) pays the bushy search once.
    Deterministic: same config, same machine, same workload.
    """
    config = config or WorkloadConfig()
    cost_model = cost_model or CostModel()
    population = build_query_population(config, cost_model)
    plans: list[ParallelExecutionPlan] = []
    accepted: list[int] = []
    for graph, trees, query_index in population.entries:
        accepted.append(query_index)
        for rank, tree in enumerate(trees):
            plans.append(compile_plan(
                graph, tree, machine,
                cost_model=cost_model,
                label=f"q{query_index}p{rank}",
            ))
    return Workload(config=config, plans=plans,
                    accepted_queries=accepted,
                    rejected_queries=population.rejected)
