"""Horizontal partitioning of relations across SM-nodes and disks.

Section 2.1 of the paper: "Relations are horizontally partitioned across
nodes, and within each node across disks.  The degree of partitioning of a
relation is a function of the size and heat of the relation [Copeland88].
Relation partitioning is based on a hash function applied to some
attribute.  The home of a relation is simply the set of SM-nodes which
store its partitions."

:class:`RelationPlacement` captures the materialized decision: for one
relation, which nodes hold partitions, how many tuples/pages sit on each
node, and how each node's share spreads over its local disks.  Shares
are even (what an ideal hash function achieves): the paper's experiments
inject no placement skew (Section 5.2.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .relation import Relation
from .skew import proportional_split

__all__ = ["PartitionMove", "RelationPlacement", "partitioning_degree",
           "place_relation", "rebalance_moves"]


def partitioning_degree(relation: Relation, max_nodes: int,
                        tuples_per_node_target: int = 50_000) -> int:
    """Heuristic degree of partitioning from size and heat [Copeland88].

    Larger and hotter relations are spread over more nodes.  The paper's
    experiments bypass this heuristic ("relations are fully partitioned
    across all SM-nodes"), but the engine supports partial homes and this
    function provides a reasonable default for user plans.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    weighted = relation.cardinality * max(relation.heat, 0.1)
    degree = max(1, math.ceil(weighted / tuples_per_node_target))
    return min(max_nodes, degree)


@dataclass(frozen=True)
class RelationPlacement:
    """Physical placement of one relation on a hierarchical machine.

    Attributes
    ----------
    relation:
        The placed relation.
    home:
        Node ids storing partitions, in ascending order ("the home of a
        relation is the set of SM-nodes which store its partitions").
    tuples_per_node:
        Tuple count per home node (aligned with ``home``).
    tuples_per_disk:
        For each home node, tuple counts per local disk.
    page_size:
        Page size used to derive page counts.
    """

    relation: Relation
    home: tuple[int, ...]
    tuples_per_node: tuple[int, ...]
    tuples_per_disk: tuple[tuple[int, ...], ...]
    page_size: int = 8 * 1024

    def __post_init__(self) -> None:
        if len(self.home) != len(self.tuples_per_node):
            raise ValueError("home and tuples_per_node must align")
        if len(self.home) != len(self.tuples_per_disk):
            raise ValueError("home and tuples_per_disk must align")
        if len(set(self.home)) != len(self.home):
            raise ValueError("home contains duplicate nodes")
        if sum(self.tuples_per_node) != self.relation.cardinality:
            raise ValueError(
                f"{self.relation.name}: node shares sum to "
                f"{sum(self.tuples_per_node)}, expected {self.relation.cardinality}"
            )
        for node_index, disk_shares in enumerate(self.tuples_per_disk):
            if sum(disk_shares) != self.tuples_per_node[node_index]:
                raise ValueError(
                    f"{self.relation.name}: disk shares on home[{node_index}] "
                    f"sum to {sum(disk_shares)}, expected "
                    f"{self.tuples_per_node[node_index]}"
                )

    def node_share(self, node_id: int) -> int:
        """Tuples of this relation stored on ``node_id`` (0 if not home)."""
        try:
            index = self.home.index(node_id)
        except ValueError:
            return 0
        return self.tuples_per_node[index]

    def disk_shares(self, node_id: int) -> tuple[int, ...]:
        """Per-disk tuple counts on ``node_id`` (empty if not home)."""
        try:
            index = self.home.index(node_id)
        except ValueError:
            return ()
        return self.tuples_per_disk[index]


@dataclass(frozen=True)
class PartitionMove:
    """One cross-node shipment of a rebalance: tuples of one relation.

    The unit the elastic-cluster rebalancer prices and ships: ``tuples``
    of ``relation`` migrate from ``src_node`` to ``dst_node``; ``nbytes``
    is the payload (``tuples * tuple_size``) that crosses the
    interconnect.
    """

    relation: Relation
    src_node: int
    dst_node: int
    tuples: int

    def __post_init__(self) -> None:
        if self.src_node == self.dst_node:
            raise ValueError(
                f"{self.relation.name}: move src and dst are both node "
                f"{self.src_node}"
            )
        if self.tuples < 1:
            raise ValueError(
                f"{self.relation.name}: moves ship at least one tuple, "
                f"got {self.tuples}"
            )

    @property
    def nbytes(self) -> int:
        return self.tuples * self.relation.tuple_size


def rebalance_moves(old: RelationPlacement,
                    new: RelationPlacement) -> tuple[PartitionMove, ...]:
    """Minimal tuple movement turning placement ``old`` into ``new``.

    DynaHash's observation made concrete: only the per-node share
    *deltas* need to cross the network.  Nodes whose share shrank are
    sources, nodes whose share grew are sinks; pairing them greedily in
    ascending node order yields at most ``sources + sinks - 1`` moves and
    ships exactly ``sum(positive deltas)`` tuples — the byte-conservation
    property the elastic tests pin (bytes shipped == partition bytes
    moved, never a full re-send of the relation).
    """
    if old.relation is not new.relation and old.relation != new.relation:
        raise ValueError(
            f"placements describe different relations: {old.relation.name} "
            f"vs {new.relation.name}"
        )
    nodes = sorted(set(old.home) | set(new.home))
    surplus = []  # (node, tuples to give up), ascending node order
    deficit = []  # (node, tuples to receive), ascending node order
    for node in nodes:
        delta = new.node_share(node) - old.node_share(node)
        if delta < 0:
            surplus.append([node, -delta])
        elif delta > 0:
            deficit.append([node, delta])
    moves = []
    si = di = 0
    while si < len(surplus) and di < len(deficit):
        src, give = surplus[si]
        dst, need = deficit[di]
        tuples = min(give, need)
        moves.append(PartitionMove(
            relation=new.relation, src_node=src, dst_node=dst, tuples=tuples,
        ))
        surplus[si][1] -= tuples
        deficit[di][1] -= tuples
        if surplus[si][1] == 0:
            si += 1
        if deficit[di][1] == 0:
            di += 1
    return tuple(moves)


def place_relation(relation: Relation, home: Sequence[int], disks_per_node: int,
                   page_size: int = 8 * 1024) -> RelationPlacement:
    """Hash-partition ``relation`` evenly over ``home`` nodes and their disks."""
    home = tuple(sorted(home))
    if not home:
        raise ValueError(f"{relation.name}: home must contain at least one node")
    if disks_per_node < 1:
        raise ValueError(f"disks_per_node must be >= 1, got {disks_per_node}")
    node_shares = proportional_split(relation.cardinality,
                                     [1.0 / len(home)] * len(home))
    disk_weights = [1.0 / disks_per_node] * disks_per_node
    disk_shares = [tuple(proportional_split(share, disk_weights))
                   for share in node_shares]
    return RelationPlacement(
        relation=relation,
        home=home,
        tuples_per_node=tuple(node_shares),
        tuples_per_disk=tuple(disk_shares),
        page_size=page_size,
    )
