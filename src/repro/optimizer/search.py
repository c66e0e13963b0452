"""Bushy join-tree search with top-k retention.

The paper runs each generated query "through our DBS3 query optimizer
[Lanzelotte93]" and keeps "the two best bushy operator trees" (Section
5.1.2).  This module provides an equivalent: exact dynamic programming over
connected sub-graphs, retaining the top ``k`` trees per subset, which for
``k = 2`` reproduces the two-plans-per-query population.

Because query graphs are trees (acyclic connected), the partition step is
cheap: a connected subset induces a subtree, and every way of splitting it
into two connected halves corresponds to cutting exactly one induced edge.
Relation sets are bitmasks; with the query tree rooted once, cutting the
edge above ``child`` splits a subset ``S`` into ``S & subtree(child)`` and
the rest.

Measured shape: a 12-relation query has about 360 connected subsets and
about 10.8 k candidate joins (a split x a retained row of each half x two
orientations).  The population builder searches only the generated
graphs its greedy upper bound cannot reject first: 8 of the ledger's 31
(84 612 candidates instead of 333 602), 20 of the paper's 54.  The search
is part of every cold start's set-up, so it does O(1) work per
candidate and calls no method for it: a retained row carries its cost
and cardinality, the cost model's three per-tuple constants (build,
probe, result) are read once per search, the output cardinality once
per row pair (both orientations share it), and a candidate's cost is one
expression over its two children's — the float expression of
``CostModel.build_instructions`` + ``probe_instructions``, so costs are
bit-identical.  A candidate dearer than the k-th best so far is dropped
before it has a signature or a ``JoinNode``.  Only the rows a subset
retains, at most ``k``, become trees.

Build-side choice: both orientations of every join are explored; the cost
model then prefers hashing the smaller side, unless the global shape makes
the other orientation cheaper (that is what makes retained plans genuinely
bushy).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from ..query.graph import QueryGraph
from .cost import ESTIMATE_MIPS, CardinalityEstimator, CostModel
from .join_tree import BaseNode, JoinNode, JoinTree, tree_signature

__all__ = ["PlanCandidate", "BushySearch", "best_bushy_trees"]

#: candidates are ranked by cost, ties broken by canonical signature
_RANK = itemgetter(0, 1)


@dataclass(frozen=True)
class PlanCandidate:
    """A join tree together with its estimated cost."""

    cost: float
    tree: JoinTree

    @property
    def signature(self) -> str:
        """Canonical tree string, used for deduplication."""
        return tree_signature(self.tree)


class BushySearch:
    """Exact DP over connected subsets of a tree-shaped query graph."""

    def __init__(self, graph: QueryGraph, cost_model: Optional[CostModel] = None,
                 estimator: Optional[CardinalityEstimator] = None, k: int = 2):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.graph = graph
        self.cost_model = cost_model or CostModel()
        self.estimator = estimator or CardinalityEstimator(graph)
        self.k = k
        # Relation sets are bitmasks over ``graph.names`` from here on.
        names = graph.names
        self._bit = {name: 1 << i for i, name in enumerate(names)}
        self._adjacent = {
            self._bit[name]: sum(self._bit[n] for n in graph.neighbors(name))
            for name in names
        }
        # Root the query tree at the first relation.  Cutting the edge above
        # ``child`` splits a connected subset S into S & below[child] and the
        # rest, so one cut is (both endpoints, below[child], selectivity).
        parent: dict[str, str] = {}
        order = [names[0]]
        for name in order:
            for neighbor in graph.neighbors(name):
                if neighbor != parent.get(name):
                    parent[neighbor] = name
                    order.append(neighbor)
        below = dict(self._bit)
        for child in reversed(order[1:]):
            below[parent[child]] |= below[child]
        self._cuts = [
            (self._bit[child] | self._bit[up], below[child],
             graph.edge_between(child, up).selectivity)
            for child, up in parent.items()
        ]

    # -- subset enumeration -------------------------------------------------

    def _connected_masks(self) -> list[int]:
        """Bitmasks of all connected subsets, smallest subsets first."""
        # subset -> the relations adjacent to it, grown one relation at a time
        frontier = dict(self._adjacent)
        ordered = list(frontier)
        while frontier:
            grown: dict[int, int] = {}
            for subset, border in frontier.items():
                rest = border
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    bigger = subset | bit
                    if bigger not in grown:
                        grown[bigger] = (border | self._adjacent[bit]) & ~bigger
            ordered.extend(grown)
            frontier = grown
        return ordered

    # -- the DP ---------------------------------------------------------------

    def _leaf_cost(self, card: float) -> float:
        return (
            self.cost_model.scan_instructions(card)
            + self.cost_model.scan_io_seconds(card) * ESTIMATE_MIPS
        )

    def run(self) -> list[PlanCandidate]:
        """Top-``k`` bushy trees for the full relation set, cheapest first."""
        k = self.k
        # CostModel.build_instructions / probe_instructions, inlined:
        # per-tuple constants read once, the same float expression.
        params = self.cost_model.params
        per_build = params.build_instructions_per_tuple
        per_probe = params.probe_instructions_per_tuple
        per_result = params.result_instructions_per_tuple
        # subset -> its retained rows ``(cost, cardinality, tree)``, best first
        best: dict[int, list[tuple[float, float, JoinTree]]] = {}
        for name, bit in self._bit.items():
            leaf = BaseNode(self.graph.relation(name))
            card = self.estimator.cardinality(leaf)
            best[bit] = [(self._leaf_cost(card), card, leaf)]

        for subset in self._connected_masks():
            if subset in best:
                continue
            # the <= k cheapest ``(cost, signature, cardinality, build tree,
            # probe tree, selectivity)`` so far; ``bar`` is the k-th's cost
            top: list[tuple] = []
            bar = float("inf")
            for both, below, selectivity in self._cuts:
                if subset & both != both:
                    continue
                left = subset & below
                for l_row in best[left]:
                    for r_row in best[subset ^ left]:
                        # a product commutes exactly: one per row pair
                        out_card = l_row[1] * r_row[1] * selectivity
                        for (b_cost, b_card, build), (p_cost, p_card, probe) in (
                            (l_row, r_row), (r_row, l_row),
                        ):
                            cost = b_cost + p_cost + (
                                b_card * per_build
                                + (p_card * per_probe + out_card * per_result)
                            )
                            if cost > bar:
                                continue
                            top.append((
                                cost, f"({build.signature}>{probe.signature})",
                                out_card, build, probe, selectivity,
                            ))
                            top.sort(key=_RANK)
                            del top[k:]
                            if len(top) == k:
                                bar = top[-1][0]
            best[subset] = [
                (cost, card, JoinNode(build, probe, selectivity))
                for cost, _, card, build, probe, selectivity in top
            ]

        full = (1 << len(self._bit)) - 1
        return [PlanCandidate(cost, tree) for cost, _, tree in best[full]]


def best_bushy_trees(graph: QueryGraph, k: int = 2,
                     cost_model: Optional[CostModel] = None,
                     estimator: Optional[CardinalityEstimator] = None) -> list[JoinTree]:
    """Convenience wrapper: the ``k`` best bushy join trees for ``graph``."""
    search = BushySearch(graph, cost_model=cost_model, estimator=estimator, k=k)
    return [candidate.tree for candidate in search.run()]
