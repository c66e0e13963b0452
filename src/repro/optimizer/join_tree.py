"""Join-tree algebra: the output of join ordering.

A join tree is a binary tree whose leaves are base relations and whose
internal nodes are hash joins.  Following the paper's convention, each join
node distinguishes its **build** child (hashed side) from its **probe**
child (streamed side).

Shapes (Section 2.2): left-deep, right-deep, zigzag and bushy trees differ
in where composite results may appear.  With the build/probe convention
used here (and in [Ziane93]):

- *left-deep*: the probe child of every join is a base relation
  (composites are always built);
- *right-deep*: the build child of every join is a base relation
  (composites are always probed, maximizing pipelining);
- *zigzag*: every join has at least one base-relation child;
- *bushy*: no restriction — the shape the paper concentrates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from ..catalog.relation import Relation
from ..query.graph import GraphError, QueryGraph

__all__ = [
    "BaseNode",
    "JoinNode",
    "JoinTree",
    "leaves",
    "joins",
    "relation_set",
    "is_left_deep",
    "is_right_deep",
    "is_zigzag",
    "validate_tree",
    "tree_signature",
]


@dataclass(frozen=True)
class BaseNode:
    """A leaf: one base relation."""

    relation: Relation
    #: names of relations under this node
    relations: frozenset[str] = field(init=False, repr=False, compare=False)
    #: canonical string of the tree, see :func:`tree_signature`
    signature: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", frozenset((self.relation.name,)))
        object.__setattr__(self, "signature", self.relation.name)

    def __str__(self) -> str:
        return self.relation.name


@dataclass(frozen=True)
class JoinNode:
    """A hash join: ``build`` side is hashed, ``probe`` side streams.

    ``selectivity`` is the join selectivity factor of the predicate edge
    connecting the two subtrees (exactly one edge, since query graphs are
    trees).  ``relations`` and ``signature`` are derived once, from the
    children's, at construction; equality, hash and repr ignore them.
    """

    build: "JoinTree"
    probe: "JoinTree"
    selectivity: float
    #: names of relations under this node
    relations: frozenset[str] = field(init=False, repr=False, compare=False)
    #: canonical string of the tree, see :func:`tree_signature`
    signature: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.selectivity <= 0:
            raise ValueError(f"selectivity must be positive, got {self.selectivity}")
        overlap = self.build.relations & self.probe.relations
        if overlap:
            raise ValueError(f"children overlap on {sorted(overlap)}")
        object.__setattr__(
            self, "relations", self.build.relations | self.probe.relations)
        object.__setattr__(
            self, "signature",
            f"({self.build.signature}>{self.probe.signature})")

    def __str__(self) -> str:
        return f"({self.build} ⋈ {self.probe})"


JoinTree = Union[BaseNode, JoinNode]


def leaves(tree: JoinTree) -> Iterator[BaseNode]:
    """All leaves, left-to-right (build side first)."""
    if isinstance(tree, BaseNode):
        yield tree
    else:
        yield from leaves(tree.build)
        yield from leaves(tree.probe)


def joins(tree: JoinTree) -> Iterator[JoinNode]:
    """All join nodes, bottom-up (children before parents)."""
    if isinstance(tree, JoinNode):
        yield from joins(tree.build)
        yield from joins(tree.probe)
        yield tree


def relation_set(tree: JoinTree) -> frozenset[str]:
    """Names of all relations in the tree."""
    return tree.relations


def is_left_deep(tree: JoinTree) -> bool:
    """True when every probe child is a base relation."""
    return all(isinstance(j.probe, BaseNode) for j in joins(tree))


def is_right_deep(tree: JoinTree) -> bool:
    """True when every build child is a base relation."""
    return all(isinstance(j.build, BaseNode) for j in joins(tree))


def is_zigzag(tree: JoinTree) -> bool:
    """True when every join has at least one base-relation child."""
    return all(
        isinstance(j.build, BaseNode) or isinstance(j.probe, BaseNode)
        for j in joins(tree)
    )


def validate_tree(tree: JoinTree, graph: QueryGraph) -> None:
    """Check that ``tree`` is a valid join tree for ``graph``.

    Every relation appears exactly once, every join corresponds to exactly
    one predicate edge between its subtrees (no cross products), and the
    selectivity annotation matches the edge.  Raises :class:`GraphError`.
    """
    names = [leaf.relation.name for leaf in leaves(tree)]
    if len(names) != len(set(names)):
        raise GraphError("a relation appears twice in the join tree")
    if set(names) != set(graph.names):
        missing = set(graph.names) - set(names)
        extra = set(names) - set(graph.names)
        raise GraphError(f"tree covers wrong relations (missing={missing}, extra={extra})")
    for join in joins(tree):
        edges = graph.connecting_edges(join.build.relations, join.probe.relations)
        if len(edges) != 1:
            raise GraphError(
                f"join of {sorted(join.build.relations)} with "
                f"{sorted(join.probe.relations)} crosses {len(edges)} predicate "
                f"edges, expected exactly 1"
            )
        if abs(edges[0].selectivity - join.selectivity) > 1e-12:
            raise GraphError("join selectivity does not match the predicate edge")


def tree_signature(tree: JoinTree) -> str:
    """A canonical string for deduplicating structurally equal trees.

    ``(build>probe)`` nested over relation names; each node carries it
    from construction, so this is a field read.
    """
    return tree.signature
