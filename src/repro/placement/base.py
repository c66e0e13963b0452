"""Placement interface: policies, cluster view, and the home rewrite.

A policy never mutates a plan.  :func:`place_plan` asks the policy for a
*target node set* and derives a new
:class:`~repro.optimizer.plan.ParallelExecutionPlan` whose join
(build/probe) homes are narrowed to that set; scan homes are left
untouched (Section 2.2 constraint (i): the home of a scan is that of
the scanned relation), and each join's build and probe receive the same
narrowed home (constraint (ii)) — the rewritten plan re-runs the full
home validation in ``__post_init__``.

A decision's ``bytes_avoided`` prices redistribution the way the engine
routes it: every scanned tuple whose storage node is not its hash-target
node ships — see :func:`estimated_shipped_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..optimizer.operator_tree import OpKind
from ..optimizer.plan import ParallelExecutionPlan

__all__ = [
    "ClusterView",
    "PlacementDecision",
    "PlacementPolicy",
    "estimated_shipped_bytes",
    "join_candidates",
    "place_plan",
]


@dataclass(frozen=True)
class ClusterView:
    """What a policy may observe: membership, load, admission count.

    ``planning_nodes`` is the coordinator's current planning set — the
    non-draining members on an elastic cluster, the whole machine on a
    static one — so a policy can never place onto a node that admission
    has already planned out.  ``node_load`` is the O(1) engine load
    snapshot (total queued activations across all live queries) and
    ``admitted`` the count of queries admitted so far (the pure
    round-robin cursor: it only advances on admission, so re-evaluating
    a head between admissions is stable).
    """

    planning_nodes: tuple[int, ...]
    node_load: Callable[[int], int]
    admitted: int


@dataclass(frozen=True)
class PlacementDecision:
    """The admission-time outcome of one policy invocation."""

    policy: str
    #: the target node set the join homes were narrowed to.
    nodes: tuple[int, ...]
    #: estimated redistribution bytes avoided vs the optimizer homes
    #: (negative when the chosen set ships *more* than the paper's).
    bytes_avoided: int
    #: True when the rewrite actually changed at least one home.
    changed: bool


class PlacementPolicy:
    """One admission-time scheduler.  Subclasses set ``name`` and
    implement :meth:`choose`; they must be stateless and deterministic —
    the same ``(plan, spec, view)`` must always yield the same target
    (the determinism and replay contracts depend on it)."""

    name = "policy"

    def choose(self, plan: ParallelExecutionPlan, spec,
               view: ClusterView) -> Optional[tuple[int, ...]]:
        """The target node set for the plan's joins (None: keep homes)."""
        raise NotImplementedError

    def width(self, spec, candidates: Sequence[int]) -> int:
        """The effective home width: ``spec.width`` clamped to the
        candidate count, with 0 meaning the full candidate set."""
        if spec.width == 0:
            return len(candidates)
        return min(spec.width, len(candidates))


def join_candidates(plan: ParallelExecutionPlan,
                    view: ClusterView) -> tuple[int, ...]:
    """Nodes a policy may place joins on: planning members that the
    optimizer homes already span (a policy narrows homes, it never
    invents capacity the plan was not compiled for)."""
    union: set[int] = set()
    for op in plan.operators:
        if op.kind is not OpKind.SCAN:
            union.update(plan.homes[op.op_id])
    return tuple(sorted(union.intersection(view.planning_nodes)))


def estimated_shipped_bytes(plan: ParallelExecutionPlan,
                            target: Sequence[int]) -> int:
    """Redistribution bytes if every join is homed on ``target``.

    Scanned tuples hash-route uniformly across the join home: a tuple
    stored on a node inside the target set stays local with probability
    ``1/len(target)``; a tuple stored outside ships always.  This is the
    same uniform-routing assumption the engine's redistribution uses
    (skew only reweights it), so the estimate is comparable across
    candidate sets even when it is not exact per run.
    """
    target_set = set(target)
    k = len(target_set)
    if k == 0:
        return 0
    total = 0.0
    for placement in plan.placements.values():
        tuple_size = placement.relation.tuple_size
        for node in placement.home:
            nbytes = placement.node_share(node) * tuple_size
            if node in target_set:
                total += nbytes * (k - 1) / k
            else:
                total += nbytes
    return int(total)


def rewrite_homes(plan: ParallelExecutionPlan, target: Sequence[int],
                  ) -> tuple[ParallelExecutionPlan, bool]:
    """The plan with join homes narrowed to ``target`` (scans untouched).

    Per join, the new home is ``target ∩ original home`` — or the
    original home when the intersection is empty (a policy cannot strand
    a join the target set never overlapped).  Build and probe are
    narrowed together, so constraint (ii) holds by construction.
    """
    target_set = set(target)
    homes = dict(plan.homes)
    changed = False
    tree = plan.operators
    for op in tree:
        if op.kind is not OpKind.BUILD:
            continue
        home = plan.homes[op.op_id]
        narrowed = tuple(sorted(target_set.intersection(home)))
        if not narrowed or narrowed == home:
            continue
        probe_id = tree.probe_of(op.op_id)
        homes[op.op_id] = narrowed
        homes[probe_id] = narrowed
        changed = True
    if not changed:
        return plan, False
    placed = ParallelExecutionPlan(
        graph=plan.graph,
        join_tree=plan.join_tree,
        operators=plan.operators,
        schedule=plan.schedule,
        homes=homes,
        placements=plan.placements,
        estimated_work=plan.estimated_work,
        label=plan.label,
    )
    return placed, True


def place_plan(plan: ParallelExecutionPlan, policy: PlacementPolicy,
               spec, view: ClusterView,
               ) -> tuple[ParallelExecutionPlan, Optional[PlacementDecision]]:
    """Apply ``policy`` to ``plan``; returns the plan to run + decision.

    Returns ``(plan, None)`` when the policy declines (the ``paper``
    no-op, or no candidates).  Otherwise the decision records the chosen
    target set and the estimated redistribution bytes avoided relative
    to the optimizer homes — even when the chosen set happens to equal
    the original home (``changed=False``), so placement counters always
    sum to the admitted query count.
    """
    target = policy.choose(plan, spec, view)
    if target is None:
        return plan, None
    placed, changed = rewrite_homes(plan, target)
    baseline = join_candidates(plan, view)
    avoided = (estimated_shipped_bytes(plan, baseline)
               - estimated_shipped_bytes(plan, target))
    decision = PlacementDecision(
        policy=policy.name,
        nodes=tuple(sorted(target)),
        bytes_avoided=avoided,
        changed=changed,
    )
    return placed, decision
