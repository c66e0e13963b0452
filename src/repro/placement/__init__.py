"""Placement subsystem: pluggable admission-time cluster schedulers.

The paper's only placement mechanism is static optimizer homes plus the
Section 4 receiver-initiated steal protocol.  This package adds the
*proactive* half of the design space the DLB surveys name: a cluster
scheduler that decides, at admission time, which SM-nodes a query's
join operators land on — before a single activation is queued and
before the steal protocol has anything to react to.

* :class:`~repro.placement.base.PlacementPolicy` — the scheduler
  interface: given a plan, a :class:`~repro.placement.base.ClusterView`
  of the live membership/load and the scenario's :class:`PlacementSpec`
  knobs, choose the target node set for the query's join (build/probe)
  operators.  Scan homes are physics (constraint (i): a scan lives where
  its relation lives) and are never rewritten.
* :mod:`repro.placement.policies` — the built-in policies and their
  string-keyed table (``paper``, ``round_robin``, ``load_aware``,
  ``location_aware``; :func:`~repro.placement.policies.get_policy`),
  mirroring the ray-scheduler-prototype registry excerpted in
  SNIPPETS.md.
* :class:`PlacementSpec` — policy selection as data on
  ``ScenarioSpec.workload.placement``, every knob a sweepable dotted
  path (``workload.placement.scheduler``, ``.width``).

The package re-exports the spec only, so a scenario validates without
loading a policy.

The ``paper`` policy is the default and a strict no-op: no homes are
rewritten, no counters recorded, no events logged — byte-identical to a
coordinator with no placement wiring at all, which is what keeps every
pre-placement determinism baseline intact.
"""

from .spec import SCHEDULERS, PlacementSpec

__all__ = ["SCHEDULERS", "PlacementSpec"]
