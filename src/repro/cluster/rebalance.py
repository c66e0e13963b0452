"""Online partition rebalancing with an explicit movement-cost model.

When membership changes, the partitioned relations of the resident plan
population must follow: a joining node is useless until it holds its
hash-partition shares, and a draining node must ship its shares off
before it can leave.  DynaHash's framing applies directly — rebalancing
pays off exactly when the bytes moved are priced against the load
gained — and this module makes that price explicit and observable.

Cost model (identical to the steal protocol's page-transfer pricing in
:mod:`repro.engine.scheduler`):

* the source node pays ``NetworkParams.send_instructions(nbytes)`` of
  CPU time to serialize a shipment (10000 instructions per 8 KB, the
  paper's Section 5.1.1 table);
* the payload crosses the one shared interconnect — through a dedicated
  :class:`~repro.sim.network.Network` overlay over the substrate's
  ``net_link``, tagged :data:`~repro.sim.network.REBALANCE_TAG` and
  accounted under ``purpose="rebalance"`` so query traffic and movement
  traffic separate cleanly in the counters;
* the destination pays ``receive_instructions(nbytes)`` before the
  shares are installed.

What the moves *are* comes from the catalog layer:
:func:`~repro.catalog.partitioning.rebalance_moves` diffs the old and
new hash placements per relation, so only per-node share deltas travel
(minimal movement), and bytes shipped always equals partition bytes
moved — the conservation property the elastic tests pin.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..catalog.partitioning import (PartitionMove, place_relation,
                                    rebalance_moves)
from ..catalog.relation import Relation
from ..sim.network import Network, REBALANCE_TAG

__all__ = ["Rebalancer", "resident_relations"]


def resident_relations(plans: Iterable) -> tuple[Relation, ...]:
    """The distinct base relations of a plan population, sorted by name.

    This is the data set membership changes must rebalance: every
    relation any plan of the population scans.  Relation identity is by
    name (the factories rebuild equal ``Relation`` objects per cluster
    size; name, cardinality and tuple size are size-invariant).
    """
    by_name: dict[str, Relation] = {}
    for plan in plans:
        for name in sorted(plan.graph.relations):
            by_name.setdefault(name, plan.graph.relations[name])
    return tuple(by_name[name] for name in sorted(by_name))


class Rebalancer:
    """Plans and executes partition movement over the shared interconnect."""

    def __init__(self, substrate, relations: Sequence[Relation]):
        self.substrate = substrate
        self.env = substrate.env
        self.config = substrate.config
        self.relations = tuple(relations)
        #: the movement overlay: one Network over the substrate's link,
        #: so rebalance shipments queue behind (and are accounted apart
        #: from) query traffic on a finite-bandwidth interconnect.
        self.network = Network(
            self.env, substrate.params.network, link=substrate.net_link
        )
        for node_id in range(self.config.nodes):
            self.network.register(node_id, self._deliver)
        # --- statistics -------------------------------------------------
        self.rebalances = 0
        self.total_moves = 0
        self.total_bytes = 0
        self.total_tuples = 0
        self.total_seconds = 0.0

    # -- planning ------------------------------------------------------------

    def plan_moves(self, old_nodes: Sequence[int],
                   new_nodes: Sequence[int]) -> tuple[PartitionMove, ...]:
        """Every move turning the ``old_nodes`` placement into ``new_nodes``.

        Placements are the canonical even hash placements of each
        resident relation over the active prefix (placement skew is a
        per-run experiment knob, not a membership property, so the
        rebalance target is always the even split an ideal hash
        achieves).
        """
        old_nodes = tuple(old_nodes)
        new_nodes = tuple(new_nodes)
        if old_nodes == new_nodes:
            return ()
        disks = self.config.processors_per_node  # one disk per processor
        page = self.config.page_size
        moves: list[PartitionMove] = []
        for relation in self.relations:
            before = place_relation(relation, old_nodes, disks,
                                    page_size=page)
            after = place_relation(relation, new_nodes, disks,
                                   page_size=page)
            moves.extend(rebalance_moves(before, after))
        return tuple(moves)

    # -- execution -----------------------------------------------------------

    def execute(self, moves: Sequence[PartitionMove]):
        """Ship ``moves`` concurrently; ``yield from`` until all installed."""
        moves = tuple(moves)
        started = self.env.now
        self.rebalances += 1
        if moves:
            done = self.env.event("rebalance-done")
            remaining = [len(moves)]
            for index, move in enumerate(moves):
                self.env.process(
                    self._ship(move, remaining, done),
                    name=f"rebalance:{index}:{move.src_node}->{move.dst_node}",
                )
            yield done
        duration = self.env.now - started
        self.total_seconds += duration
        for move in moves:
            self.total_moves += 1
            self.total_bytes += move.nbytes
            self.total_tuples += move.tuples
        return duration

    def _ship(self, move: PartitionMove, remaining: list, done):
        """One shipment: sender CPU, the wire, receiver CPU, install."""
        params = self.network.params
        nbytes = move.nbytes
        yield self.env.timeout(
            self.config.instructions_time(params.send_instructions(nbytes))
        )
        self.network.send(
            move.src_node, move.dst_node, "rebalance_data",
            payload=(move, remaining, done), nbytes=nbytes,
            purpose="rebalance", tag=REBALANCE_TAG,
        )

    def _deliver(self, message) -> None:
        move, remaining, done = message.payload
        self.env.process(
            self._install(move, remaining, done),
            name=f"rebalance-install:{move.dst_node}",
        )

    def _install(self, move: PartitionMove, remaining: list, done):
        params = self.network.params
        yield self.env.timeout(
            self.config.instructions_time(
                params.receive_instructions(move.nbytes)
            )
        )
        remaining[0] -= 1
        if remaining[0] == 0 and not done.triggered:
            done.succeed()
