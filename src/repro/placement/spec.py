"""Placement selection as data: the ``workload.placement`` subtree.

A :class:`PlacementSpec` travels on
:class:`~repro.serving.spec.WorkloadSpec`, so a scenario file selects
its cluster scheduler the same way it selects arrivals or admission —
and every knob is a sweepable dotted path
(``workload.placement.scheduler``, ``.width``) for
:class:`~repro.api.sweep.SweepSpec` grids.

Validation runs at spec load, not run time: an unknown ``scheduler``
name or an out-of-range knob raises ``ValueError`` here, which the
serde layer surfaces as a dotted-path
:class:`~repro.api.serde.SpecError` (``$.workload.placement: ...``).
The roster is data (:data:`SCHEDULERS`), so validating a spec never
imports the policies (:mod:`repro.placement.policies`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SCHEDULERS", "PlacementSpec"]

#: the policy names :mod:`repro.placement.policies` registers, sorted.
SCHEDULERS = ("load_aware", "location_aware", "paper", "round_robin")


@dataclass(frozen=True)
class PlacementSpec:
    """Which cluster scheduler places admitted queries, and its knobs."""

    #: registered policy name; ``"paper"`` (the default) disables
    #: placement entirely — optimizer homes verbatim, no counters, no
    #: events, byte-identical to the pre-placement coordinator.
    scheduler: str = "paper"
    #: join-home width of every other policy: how many nodes each
    #: query's joins are concentrated on.  0 = the full candidate set
    #: (no narrowing).
    width: int = 1

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown placement scheduler {self.scheduler!r}; "
                f"known: {list(SCHEDULERS)}"
            )
        if self.width < 0:
            raise ValueError(
                f"width must be >= 0 (0 = full home width), got {self.width}"
            )

    @property
    def active(self) -> bool:
        """Whether this spec selects a real scheduler (not the no-op)."""
        return self.scheduler != "paper"
