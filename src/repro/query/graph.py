"""Predicate connection graphs for multi-join queries.

The paper generates queries whose predicate connection graph is an
*acyclic connected* graph (Section 5.1.2): nodes are relations, edges are
equi-join predicates annotated with a join selectivity factor.  Acyclic +
connected means the graph is a tree, which has a convenient consequence
for the optimizer: every connected subset of relations induces a subtree,
and splitting a subtree into two connected halves corresponds to cutting
exactly one of its edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..catalog.relation import Relation

__all__ = ["JoinEdge", "QueryGraph", "GraphError"]


class GraphError(ValueError):
    """Raised for malformed query graphs (cycles, disconnection, ...)."""


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join predicate between two relations.

    ``selectivity`` is the classic join selectivity factor: the join of R
    and S produces ``|R| * |S| * selectivity`` tuples.
    """

    left: str
    right: str
    selectivity: float

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise GraphError(f"self-join edge on {self.left}")
        if self.selectivity <= 0:
            raise GraphError(
                f"selectivity must be positive, got {self.selectivity} "
                f"on ({self.left}, {self.right})"
            )

    @property
    def key(self) -> frozenset[str]:
        """Order-insensitive edge identity."""
        return frozenset((self.left, self.right))

    def other(self, name: str) -> str:
        """The endpoint that is not ``name``."""
        if name == self.left:
            return self.right
        if name == self.right:
            return self.left
        raise KeyError(f"{name} is not an endpoint of {self.left}-{self.right}")


class QueryGraph:
    """An acyclic connected predicate graph over a set of relations.

    Construction validates the tree property: for ``n`` relations there must
    be exactly ``n - 1`` edges forming a connected graph, otherwise a
    :class:`GraphError` is raised.
    """

    def __init__(self, relations: Iterable[Relation], edges: Iterable[JoinEdge]):
        self.relations: dict[str, Relation] = {}
        for relation in relations:
            if relation.name in self.relations:
                raise GraphError(f"duplicate relation {relation.name}")
            self.relations[relation.name] = relation
        self.edges: list[JoinEdge] = list(edges)

        seen_edges: set[frozenset[str]] = set()
        self._adjacency: dict[str, list[JoinEdge]] = {
            name: [] for name in self.relations
        }
        for edge in self.edges:
            for endpoint in (edge.left, edge.right):
                if endpoint not in self.relations:
                    raise GraphError(f"edge references unknown relation {endpoint}")
            if edge.key in seen_edges:
                raise GraphError(f"duplicate edge {edge.left}-{edge.right}")
            seen_edges.add(edge.key)
            self._adjacency[edge.left].append(edge)
            self._adjacency[edge.right].append(edge)

        n = len(self.relations)
        if n == 0:
            raise GraphError("query graph needs at least one relation")
        if len(self.edges) != n - 1:
            raise GraphError(
                f"acyclic connected graph over {n} relations needs exactly "
                f"{n - 1} edges, got {len(self.edges)}"
            )
        if n > 1 and not self._is_connected():
            raise GraphError("query graph is not connected")

    def _is_connected(self) -> bool:
        start = next(iter(self.relations))
        seen = {start}
        frontier = [start]
        while frontier:
            name = frontier.pop()
            for edge in self._adjacency[name]:
                neighbor = edge.other(name)
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self.relations)

    # -- queries ------------------------------------------------------------

    def relation(self, name: str) -> Relation:
        """Relation metadata by name."""
        return self.relations[name]

    def neighbors(self, name: str) -> Iterator[str]:
        """Relations adjacent to ``name`` in the predicate graph."""
        for edge in self._adjacency[name]:
            yield edge.other(name)

    def edge_between(self, a: str, b: str) -> JoinEdge:
        """The edge connecting ``a`` and ``b``.

        Raises :class:`GraphError` if no such predicate exists (a join
        between them would be a cross product).
        """
        for edge in self._adjacency[a]:
            if edge.other(a) == b:
                return edge
        raise GraphError(f"no join predicate between {a} and {b}")

    def connecting_edges(self, left: frozenset[str], right: frozenset[str]) -> list[JoinEdge]:
        """Edges with one endpoint in ``left`` and the other in ``right``.

        For a tree graph and two disjoint connected subsets whose union is
        connected, exactly one edge is returned.
        """
        found = []
        for edge in self.edges:
            if (edge.left in left and edge.right in right) or (
                edge.left in right and edge.right in left
            ):
                found.append(edge)
        return found

    @property
    def names(self) -> list[str]:
        """Relation names in insertion order."""
        return list(self.relations)

    def total_base_bytes(self) -> int:
        """Sum of base relation sizes (the paper quotes ~1.3 GB)."""
        return sum(rel.bytes for rel in self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueryGraph {len(self.relations)} relations, {len(self.edges)} edges>"
