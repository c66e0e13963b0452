"""Runtime state of one operator across the machine.

Tracks the three lifecycle axes the execution model needs:

* **blocking** — the scheduling constraints of the plan: an operator is
  blocked until all its schedule predecessors have terminated ("a queue
  for a blocked operator is also blocked: its activations cannot be
  consumed but they can still be produced");
* **production** — ``producers_done`` is set once the pipelined producer
  has globally terminated and flushed its channels (for scans: at trigger
  seeding time);
* **outstanding work** — an exact count of activations that exist
  anywhere (queued, parked in channels, in flight on the network, being
  processed).  ``producers_done and outstanding == 0`` is the ground-truth
  "operator has ended" condition; the *detection* of that condition is
  the distributed protocol of :mod:`repro.engine.scheduler` (Section 4 of
  the paper), whose latency and message cost the engine pays.
"""

from __future__ import annotations

from typing import Optional

from ..optimizer.operator_tree import Operator, OpKind

__all__ = ["OperatorRuntime", "batch_output"]


def batch_output(op: Operator, tuples_in: int, batch: int) -> int:
    """Output of a ``batch`` that brings ``op``'s input to ``tuples_in``.
    The floors telescope to ``int(n * output / input cardinality)`` for a
    total input ``n`` however it was split; multiplying first keeps an
    integral output integral, where ``fanout * n`` can land just below."""
    if op.input_cardinality <= 0:
        return 0
    out, into = op.output_cardinality, op.input_cardinality
    return int(tuples_in * out / into) - int((tuples_in - batch) * out / into)


class OperatorRuntime:
    """Global runtime bookkeeping for one operator."""

    def __init__(self, op: Operator, home: tuple[int, ...],
                 predecessors: frozenset[int]):
        self.op = op
        self.home = home
        self.remaining_predecessors = set(predecessors)
        self.blocked = bool(predecessors)
        self.terminated = False
        self.termination_time: Optional[float] = None
        #: set when the pipelined producer terminated and flushed (scans:
        #: immediately after trigger seeding).
        self.producers_done = False
        #: activations existing anywhere for this operator.
        self.outstanding = 0
        #: end-detection protocol in progress (avoid double rounds).
        self.ending = False
        #: memory preemption (serving layer): a suspended operator's
        #: queued activations cannot be consumed and it cannot end —
        #: its hash tables are spilled until the preemptor releases the
        #: memory and the resume path reloads them.
        self.suspended = False
        # --- statistics ----------------------------------------------------
        self.tuples_in = 0

    # -- identity helpers ------------------------------------------------------

    @property
    def op_id(self) -> int:
        return self.op.op_id

    @property
    def kind(self) -> OpKind:
        return self.op.kind

    @property
    def label(self) -> str:
        return self.op.label

    # -- lifecycle ----------------------------------------------------------------

    def predecessor_terminated(self, pred_id: int) -> bool:
        """Record a predecessor's end; returns True if this unblocks us."""
        self.remaining_predecessors.discard(pred_id)
        if self.blocked and not self.remaining_predecessors:
            self.blocked = False
            return True
        return False

    @property
    def end_eligible(self) -> bool:
        """Ground-truth end condition (the protocol detects it)."""
        return (
            not self.terminated
            and not self.ending
            and not self.suspended
            and self.producers_done
            and self.outstanding == 0
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("terminated" if self.terminated
                 else "blocked" if self.blocked else "running")
        return (f"<OperatorRuntime {self.label} {state} "
                f"outstanding={self.outstanding}>")
