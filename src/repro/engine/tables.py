"""Hash-table bookkeeping per bucket group (build side of each join).

The engine never materializes tuples; a "hash table" is an accounted tuple
count and byte size per bucket group.  The invariant that makes group
accounting sufficient (see :mod:`repro.engine.routing`): the build and
probe operators of a join share the bucket space, and a bucket group's
probe activations match exactly the hash data built for that same group.

Memory for hash tables is charged against the owning SM-node (Section 3.2,
condition (i) of global load balancing needs the requester's free memory;
Section 2.2 assumes each pipeline chain fits in memory).

Stolen copies (global load balancing) are tracked separately per node so
the stolen-queue cache (Section 4) can answer "is this group's data
already here?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.machine import SMNode
from .activation import GroupId

__all__ = ["GroupTable", "HashTableStore"]


@dataclass
class GroupTable:
    """Accounted hash data of one bucket group of one join."""

    join_id: int
    group: GroupId
    tuples: int = 0
    nbytes: int = 0
    #: bytes accounted in ``nbytes`` but never reserved on the node
    #: (multiprogramming overcommit tolerance); release must skip them.
    unreserved: int = 0

    def insert(self, tuples: int, tuple_size: int) -> int:
        """Account ``tuples`` inserted; returns the bytes added."""
        added = tuples * tuple_size
        self.tuples += tuples
        self.nbytes += added
        return added


class HashTableStore:
    """Per-node store of locally built tables and stolen copies."""

    def __init__(self, node: SMNode):
        self.node = node
        self._built: dict[tuple[int, GroupId], GroupTable] = {}
        self._copies: dict[tuple[int, GroupId], GroupTable] = {}
        #: bytes currently held by this store (reserved + unreserved) and
        #: its peak — the *per-query* memory watermark, unlike the node
        #: pool's watermark which mixes all concurrent queries.
        self.bytes_held = 0
        self.high_watermark = 0

    def _bump(self, delta: int) -> None:
        self.bytes_held += delta
        if self.bytes_held > self.high_watermark:
            self.high_watermark = self.bytes_held

    # -- build side ------------------------------------------------------------

    def insert(self, join_id: int, group: GroupId, tuples: int,
               tuple_size: int, strict: bool = True) -> bool:
        """Insert build tuples into the group's local table (charges memory).

        With ``strict`` (the single-query default) an over-committed node
        raises :class:`~repro.sim.machine.MemoryExhausted`, surfacing
        configurations that violate the paper's chain-fits-in-memory
        assumption.  With ``strict=False`` (concurrent queries on a
        shared machine, where admission estimates can be beaten by a
        racing build) a batch that does not fit is *accounted without
        reserving* — mirroring the stolen-copy fallback — so the
        execution degrades instead of crashing.  Returns False exactly
        when that fallback was taken.
        """
        key = (join_id, group)
        table = self._built.get(key)
        if table is None:
            table = GroupTable(join_id, group)
            self._built[key] = table
        added = table.insert(tuples, tuple_size)
        self._bump(added)
        if strict:
            self.node.reserve(added)
            return True
        # Reserve as much as actually fits so the node's free-memory
        # signal (admission gate, steal condition (i)) stays honest;
        # only the remainder is carried unreserved.
        fit = min(added, max(0, self.node.available))
        if fit:
            self.node.reserve(fit)
        if fit == added:
            return True
        table.unreserved += added - fit
        return False

    def local_table(self, join_id: int, group: GroupId) -> Optional[GroupTable]:
        """The locally built table for a group, if any tuples were built."""
        return self._built.get((join_id, group))

    def table_bytes(self, join_id: int, group: GroupId) -> int:
        """Size of the locally built table for ``group`` (0 if empty)."""
        table = self._built.get((join_id, group))
        return table.nbytes if table else 0

    # -- stolen copies (global load balancing) ----------------------------------

    def install_copy(self, join_id: int, group: GroupId, tuples: int,
                     nbytes: int) -> None:
        """Install a shipped copy of a remote group's hash table."""
        key = (join_id, group)
        if key in self._copies:
            raise ValueError(f"copy of {key} already installed")
        self._copies[key] = GroupTable(join_id, group, tuples, nbytes)
        self._bump(nbytes)
        self.node.reserve(nbytes)

    def has_copy(self, join_id: int, group: GroupId) -> bool:
        """Stolen-queue cache check (Section 4 optimization)."""
        return (join_id, group) in self._copies

    # -- memory preemption (serving layer) ---------------------------------------

    def spillable_bytes(self, join_id: int) -> int:
        """Reserved bytes a spill of ``join_id`` would release."""
        return sum(
            table.nbytes - table.unreserved
            for store in (self._built, self._copies)
            for key, table in store.items()
            if key[0] == join_id
        )

    def spill_join(self, join_id: int) -> int:
        """Release the join's reserved bytes to the node (tables kept).

        The accounted table contents survive — only the node reservation
        is returned, with the bytes re-tagged ``unreserved`` (the same
        overcommit bookkeeping a racing build falls back to).  Returns
        the bytes released.
        """
        released = 0
        for store in (self._built, self._copies):
            for key, table in store.items():
                if key[0] != join_id:
                    continue
                reserved = table.nbytes - table.unreserved
                if reserved:
                    table.unreserved = table.nbytes
                    released += reserved
        if released:
            self.node.release(released)
        return released

    def unspill_join(self, join_id: int) -> int:
        """Best-effort re-reservation of a spilled join's bytes.

        Mirrors the non-strict :meth:`insert` fallback: reserve what
        fits, carry the remainder unreserved.  Returns the bytes
        re-reserved.
        """
        regained = 0
        for store in (self._built, self._copies):
            for key, table in store.items():
                if key[0] != join_id or not table.unreserved:
                    continue
                fit = min(table.unreserved, max(0, self.node.available))
                if fit:
                    self.node.reserve(fit)
                    table.unreserved -= fit
                    regained += fit
        return regained

    # -- lifecycle ---------------------------------------------------------------

    def release_join(self, join_id: int) -> int:
        """Free all tables of a join (after its probe terminates).

        Returns the bytes released.
        """
        released = 0
        held = 0
        for store in (self._built, self._copies):
            doomed = [key for key in store if key[0] == join_id]
            for key in doomed:
                table = store[key]
                released += table.nbytes - table.unreserved
                held += table.nbytes
                del store[key]
        if held:
            self._bump(-held)
        if released:
            self.node.release(released)
        return released

    def total_bytes(self) -> int:
        """Bytes currently held by all tables on this node."""
        return (
            sum(t.nbytes for t in self._built.values())
            + sum(t.nbytes for t in self._copies.values())
        )
