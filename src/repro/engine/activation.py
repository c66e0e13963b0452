"""Activations: the finest units of sequential processing (Section 3.1).

"An activation represents a sequential unit of work.  Since any activation
can be executed by any thread, activations must be self-contained and
reference all information necessary for their execution: the code to
execute and the data to process."

Two kinds:

* :class:`TriggerActivation` — starts a piece of a scan: ``(operator,
  disk, pages, tuples)``.  The paper's ``(Operator, Bucket)`` pair with the
  granularity refinement of Section 3.1 (one or more *pages* of a bucket
  instead of a whole bucket).
* :class:`DataActivation` — a buffered batch of pipelined tuples:
  ``(operator, bucket-group, tuple count)``.  The paper's ``(Operator,
  Tuple, Bucket)`` triple with buffering ("increase the granularity of data
  activations by buffering").

Activations referencing a *bucket group* — the set of buckets mapped to one
(node, queue) cell, see :mod:`repro.engine.routing` — can only execute
where the group's hash table lives: on the group's home node, or on a node
holding a stolen copy (Section 3.2, condition (iv)).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TriggerActivation", "DataActivation", "Activation", "GroupId"]

#: A bucket group identity: (home node, queue index on that node).
GroupId = tuple[int, int]

#: Approximate in-memory footprint of a trigger activation (bookkeeping
#: only: operator reference + page range).
TRIGGER_ACTIVATION_BYTES = 64


@dataclass(frozen=True, slots=True)
class TriggerActivation:
    """Start (part of) a scan: read ``pages`` from ``disk_id`` and select.

    ``tuples`` is the exact number of base tuples in those pages (derived
    from the relation placement, so that per-disk totals are conserved).
    """

    op_id: int
    disk_id: int
    pages: int
    tuples: int

    @property
    def nbytes(self) -> int:
        """Memory footprint while queued."""
        return TRIGGER_ACTIVATION_BYTES

    @property
    def is_trigger(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class DataActivation:
    """A batch of ``tuples`` pipelined tuples for ``op_id`` in ``group``.

    ``tuple_size`` gives the batch's memory footprint; ``remote`` marks
    batches that crossed the interconnect (their consumer pays the
    receive CPU cost of Section 5.1.1's network model).
    """

    op_id: int
    group: GroupId
    tuples: int
    tuple_size: int = 100
    remote: bool = False
    #: node that produced the batch (credit return address for remote sends).
    src_node: int = -1

    @property
    def nbytes(self) -> int:
        """Memory footprint while queued (tuples are buffered inline)."""
        return max(1, self.tuples) * self.tuple_size

    @property
    def is_trigger(self) -> bool:
        return False


Activation = TriggerActivation | DataActivation
