"""Random multi-join query generation, following [Shekita93] / Section 5.1.2.

The paper's procedure:

1. randomly generate the predicate connection graph — only *acyclic
   connected* graphs are considered ("most multi-join queries in practice
   tend to have simple join predicates");
2. for each relation, draw a cardinality uniformly from one of the small
   (10K–20K), medium (100K–200K), large (1M–2M) ranges;
3. for each edge (R, S), draw the join selectivity factor uniformly from::

       [ 0.5 * max(|R|,|S|) / (|R| * |S|),  1.5 * max(|R|,|S|) / (|R| * |S|) ]

   so that every join result has between half and one-and-a-half times the
   cardinality of its larger input — the standard [Shekita93] calibration
   that keeps intermediate results comparable to base relations.

The generator draws from named RNG streams (:mod:`repro.sim.rng`), so a
given ``(master_seed, query_index)`` always produces the same query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..catalog.relation import DEFAULT_TUPLE_SIZE, Relation, SizeClass
from ..sim.rng import RandomStreams
from .graph import JoinEdge, QueryGraph

__all__ = ["QueryGeneratorConfig", "QueryGenerator", "random_tree_edges"]


def random_tree_edges(names: Sequence[str], rng: random.Random) -> list[tuple[str, str]]:
    """A uniformly random labelled tree over ``names`` (random attachment).

    Each relation after the first attaches to a uniformly chosen earlier
    relation after a shuffle — a simple scheme that produces both path-like
    and star-like shapes (the query population the paper needs, since tree
    shape drives pipeline-chain structure).
    """
    order = list(names)
    rng.shuffle(order)
    edges = []
    for i in range(1, len(order)):
        parent = order[rng.randrange(i)]
        edges.append((parent, order[i]))
    return edges


@dataclass(frozen=True)
class QueryGeneratorConfig:
    """Knobs of the query generator.

    ``scale`` shrinks the size-class ranges proportionally (1.0 = the
    paper's sizes; experiments default to 0.01 for tractable simulations —
    see ARCHITECTURE.md, "Substitutions").
    """

    relations_per_query: int = 12
    scale: float = 1.0
    tuple_size: int = DEFAULT_TUPLE_SIZE
    size_classes: tuple[SizeClass, ...] = (
        SizeClass.SMALL,
        SizeClass.MEDIUM,
        SizeClass.LARGE,
    )
    #: draw the size class once per query (all relations of a query in the
    #: same range) instead of per relation.  Mixing magnitudes inside one
    #: query makes the final join result blow up by construction (the
    #: product of cardinalities and selectivities is plan-independent, and
    #: a small relation bridging two large subtrees inflates it by
    #: large/small) — incompatible with the paper's stated population
    #: (intermediate results ~3x the base data).  Per-relation mixing
    #: remains available for ablations.
    per_query_size_class: bool = True
    selectivity_low: float = 0.5
    selectivity_high: float = 1.5

    def __post_init__(self) -> None:
        if self.relations_per_query < 2:
            raise ValueError("a multi-join query needs at least two relations")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not self.size_classes:
            raise ValueError("need at least one size class")
        if not 0 < self.selectivity_low <= self.selectivity_high:
            raise ValueError("selectivity range must satisfy 0 < low <= high")


class QueryGenerator:
    """Produces the random query population of Section 5.1.2."""

    def __init__(self, streams: Optional[RandomStreams] = None,
                 config: Optional[QueryGeneratorConfig] = None):
        self.streams = streams or RandomStreams(0)
        self.config = config or QueryGeneratorConfig()

    def generate(self, query_index: int) -> QueryGraph:
        """Generate query number ``query_index`` (deterministic per index)."""
        rng = self.streams.stream(f"query:{query_index}")
        config = self.config

        names = [f"R{query_index}_{i}" for i in range(config.relations_per_query)]
        relations = []
        query_class = rng.choice(list(config.size_classes))
        for name in names:
            if config.per_query_size_class:
                size_class = query_class
            else:
                size_class = rng.choice(list(config.size_classes))
            cardinality = size_class.sample(rng, config.scale)
            relations.append(
                Relation(name=name, cardinality=cardinality,
                         tuple_size=config.tuple_size)
            )
        by_name = {relation.name: relation for relation in relations}

        edges = []
        for a, b in random_tree_edges(names, rng):
            card_a = by_name[a].cardinality
            card_b = by_name[b].cardinality
            base = max(card_a, card_b) / (card_a * card_b)
            selectivity = rng.uniform(
                config.selectivity_low * base, config.selectivity_high * base
            )
            edges.append(JoinEdge(a, b, selectivity))

        return QueryGraph(relations, edges)
