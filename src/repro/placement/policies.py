"""The built-in placement policies.

Four schedulers spanning the DLB-survey taxonomy:

* ``paper`` — the optimizer homes verbatim (placement disabled; the
  default and a strict no-op, pinned byte-identical by the determinism
  gate);
* ``round_robin`` — a width-``k`` window of the candidate set rotated
  by admission count: queries are spread without looking at anything;
* ``load_aware`` — the ``k`` least-loaded members by total queued
  activations (the O(1) engine load snapshots), id as tiebreak;
* ``location_aware`` — the ``k`` members holding the most bytes of the
  query's base partitions (``catalog.partitioning`` shares).

All policies narrow *join* homes only; scan homes are storage physics.
All are pure functions of ``(plan, spec, view)``.
"""

from __future__ import annotations

from typing import Optional

from ..optimizer.plan import ParallelExecutionPlan
from .base import PlacementPolicy, join_candidates

__all__ = [
    "PaperPolicy", "RoundRobinPolicy", "LoadAwarePolicy",
    "LocationAwarePolicy", "available_policies", "get_policy",
]


def _base_bytes_on(plan: ParallelExecutionPlan, node: int) -> int:
    """Bytes of the plan's base relations stored on ``node``."""
    return sum(
        placement.node_share(node) * placement.relation.tuple_size
        for placement in plan.placements.values()
    )


class PaperPolicy(PlacementPolicy):
    """Optimizer homes verbatim: decline every placement."""

    name = "paper"

    def choose(self, plan, spec, view) -> Optional[tuple[int, ...]]:
        return None


class RoundRobinPolicy(PlacementPolicy):
    """Rotate a width-``k`` window over the candidates per admission."""

    name = "round_robin"

    def choose(self, plan, spec, view) -> Optional[tuple[int, ...]]:
        candidates = join_candidates(plan, view)
        if not candidates:
            return None
        k = self.width(spec, candidates)
        start = view.admitted % len(candidates)
        return tuple(sorted(
            candidates[(start + i) % len(candidates)] for i in range(k)
        ))


class LoadAwarePolicy(PlacementPolicy):
    """The ``k`` least-loaded members (queued activations, id tiebreak)."""

    name = "load_aware"

    def choose(self, plan, spec, view) -> Optional[tuple[int, ...]]:
        candidates = join_candidates(plan, view)
        if not candidates:
            return None
        k = self.width(spec, candidates)
        ranked = sorted(candidates, key=lambda n: (view.node_load(n), n))
        return tuple(sorted(ranked[:k]))


class LocationAwarePolicy(PlacementPolicy):
    """The ``k`` members holding the most of the query's base bytes."""

    name = "location_aware"

    def choose(self, plan, spec, view) -> Optional[tuple[int, ...]]:
        candidates = join_candidates(plan, view)
        if not candidates:
            return None
        k = self.width(spec, candidates)
        ranked = sorted(
            candidates, key=lambda n: (-_base_bytes_on(plan, n), n)
        )
        return tuple(sorted(ranked[:k]))


#: name -> policy instance (policies are stateless).  The names are the
#: roster ``PlacementSpec`` validates against (``placement.spec.
#: SCHEDULERS``); ``tests/test_placement.py`` keeps the two equal.
_POLICIES: dict[str, PlacementPolicy] = {
    policy.name: policy
    for policy in (PaperPolicy(), RoundRobinPolicy(), LoadAwarePolicy(),
                   LocationAwarePolicy())
}


def get_policy(name: str) -> PlacementPolicy:
    """The policy registered as ``name`` (KeyError with the roster)."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown placement policy {name!r}; "
            f"known: {available_policies()}"
        ) from None


def available_policies() -> tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_POLICIES))
