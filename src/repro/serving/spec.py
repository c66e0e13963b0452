"""The serving layer's value types: a workload as data.

:class:`WorkloadSpec` composes the arrival process (:class:`ArrivalSpec`,
sampled by :mod:`repro.serving.arrivals`), the admission gates
(:class:`AdmissionPolicy`, enforced by :mod:`repro.serving.admission`),
client retries (:class:`RetryPolicySpec`) and the service classes
(:class:`ServiceClass`); :class:`TraceGenSpec` is the synthetic-traffic
model :mod:`repro.workloads.tracegen` renders.  The driver
(:mod:`repro.serving.driver`) runs them.

Kept apart from that runtime so that decoding a scenario never loads it:
a ``mode="single"`` run imports this module and no other of
``serving/``.  Every type is a frozen dataclass validated in
``__post_init__``, so the generic codec (:mod:`repro.api.serde`)
serializes it and a bad knob is a dotted-path ``SpecError`` at load.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..placement.spec import PlacementSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..sim.core import ChargeTag

__all__ = [
    "ServiceClass", "DEFAULT_CLASS", "INTERACTIVE", "BATCH",
    "ArrivalSpec", "AdmissionPolicy", "RetryPolicySpec", "TraceGenSpec",
    "WorkloadSpec",
]


@dataclass(frozen=True)
class ServiceClass:
    """One query population's scheduling/admission contract.

    Descriptive, not behavioural: the CPU disciplines read the
    :class:`~repro.sim.core.ChargeTag` a class's queries stamp on their
    charges (``weight`` under ``"fair"``, ``priority`` under
    ``"priority"`` and in the admission queue), and the admission
    controller reads the shed deadlines (``latency_slo`` with
    ``AdmissionPolicy.deadline_shedding``, ``queue_timeout``).  Every
    class shares the policy's MPL and memory gates.  Experiments typically
    ``dataclasses.replace`` the predefined ``INTERACTIVE`` / ``BATCH``
    with scenario-scaled SLOs.
    """

    name: str
    #: fair-share weight (``"fair"`` CPU discipline); larger = more CPU.
    weight: float = 1.0
    #: scheduling and admission priority; larger preempts smaller under
    #: the ``"priority"`` CPU discipline.
    priority: int = 0
    #: end-to-end latency SLO in virtual seconds (None: best effort).
    latency_slo: Optional[float] = None
    #: shed a query still waiting for admission after this long (None:
    #: fall back to the policy-wide timeout, if any).
    queue_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service class needs a name")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.latency_slo is not None and self.latency_slo <= 0:
            raise ValueError(
                f"latency_slo must be positive, got {self.latency_slo}"
            )
        if self.queue_timeout is not None and self.queue_timeout <= 0:
            raise ValueError(
                f"queue_timeout must be positive, got {self.queue_timeout}"
            )

    def charge_tag(self, query_id: int) -> ChargeTag:
        """The tag this class's queries stamp on every CPU charge.

        The fair-share key is per *query*, not per class: each query gets
        its own weighted share, so two queries of one class split the
        class allocation instead of one starving the other.
        """
        from ..sim.core import ChargeTag

        return ChargeTag(key=f"{self.name}:q{query_id}",
                         weight=self.weight, priority=self.priority)


#: queries submitted without a class: weight 1, priority 0, no SLO — in a
#: single-class workload every discipline degenerates to its baseline.
DEFAULT_CLASS = ServiceClass("default")

#: latency-sensitive foreground traffic.
INTERACTIVE = ServiceClass("interactive", weight=4.0, priority=10)

#: throughput-oriented background traffic.
BATCH = ServiceClass("batch", weight=1.0, priority=0)


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival-process description.

    ``kind`` is one of ``"poisson"``, ``"bursty"`` or ``"closed"``.

    Open-loop knobs: ``rate`` (queries per virtual second), and for
    ``bursty`` the ``burst_size`` (mean arrivals per burst, geometric)
    and ``burst_speedup`` (how much faster than ``rate`` arrivals come
    inside a burst).

    Closed-loop knob: ``population`` (concurrent clients, each
    submitting its next query the moment the last one resolves).
    """

    kind: str = "poisson"
    rate: float = 10.0
    burst_size: float = 4.0
    burst_speedup: float = 10.0
    population: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "bursty", "closed"):
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; "
                "expected 'poisson', 'bursty' or 'closed'"
            )
        # Every knob validates regardless of kind: a spec is data that may
        # be serialized, swept or re-kinded later, so a non-positive rate
        # in a closed-loop spec is a latent bug, not a dead field.
        if not self.rate > 0 or not math.isfinite(self.rate):
            raise ValueError(
                f"rate must be positive and finite, got {self.rate}"
            )
        if self.burst_size < 1 or not math.isfinite(self.burst_size):
            raise ValueError(f"burst_size must be >= 1, got {self.burst_size}")
        if self.burst_speedup < 1 or not math.isfinite(self.burst_speedup):
            raise ValueError(
                f"burst_speedup must be >= 1, got {self.burst_speedup}"
            )
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")

    @property
    def open_loop(self) -> bool:
        return self.kind != "closed"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Admission knobs.

    ``max_multiprogramming`` caps concurrently executing queries; the
    memory gate admits a query whose estimated demand fits a fixed share
    of each home node's free memory (:data:`~repro.serving.admission.
    MEMORY_HEADROOM`).

    Overload handling (open-loop streams): ``queue_timeout`` sheds any
    query still awaiting admission after that many virtual seconds (a
    service class's own ``queue_timeout`` overrides it), and
    ``deadline_shedding`` additionally sheds a queued query the moment
    its class's latency SLO can no longer be met.  Both default off, so a
    policy-less workload behaves exactly as before: it queues.

    Preemptive memory management: with ``memory_preemption`` on, a head
    query blocked on the memory gate alone may *suspend* a running
    lower-priority query's hash build — its reserved bytes spill back to
    the node pools (timed like a steal page transfer) and reload when the
    preemptor resolves — instead of waiting for batch work to drain on
    its own.  ``preemption_shed`` additionally sheds the blocked query
    with reason ``"memory_preempted"`` when no eligible victim exists
    (fail fast rather than rot past the SLO).  Both default off.
    """

    max_multiprogramming: int = 8
    queue_timeout: Optional[float] = None
    deadline_shedding: bool = False
    memory_preemption: bool = False
    preemption_shed: bool = False

    def __post_init__(self) -> None:
        if self.max_multiprogramming < 1:
            raise ValueError(
                f"max_multiprogramming must be >= 1, got "
                f"{self.max_multiprogramming}"
            )
        if self.queue_timeout is not None and self.queue_timeout <= 0:
            raise ValueError(
                f"queue_timeout must be positive, got {self.queue_timeout}"
            )


@dataclass(frozen=True)
class RetryPolicySpec:
    """How clients react to a shed query: jittered exponential backoff.

    A shed query's client resubmits after a backoff, up to
    ``max_attempts`` total submissions; the *final* attempt's shed is
    recorded as ``retries_exhausted`` (the client gives up).  With
    ``max_attempts=None`` the client retries forever — the naive
    configuration whose retry storms the overload experiment shows
    collapsing into metastable failure.

    Determinism: the backoff before attempt ``k`` of logical query
    ``index`` is a pure function of ``(seed, index, k)`` —
    :meth:`backoff` draws its jitter from a seed derived with
    ``derive_seed(seed, f"retry:{index}:{k}")``, never from a shared
    stream, so the retry schedule cannot depend on completion
    interleaving (the same purity contract as plan/class draws).
    """

    #: total submissions allowed per logical query (1 = no retries);
    #: None retries without bound.
    max_attempts: Optional[int] = 4
    #: backoff before the first retry, in virtual seconds.
    base_backoff: float = 1.0
    #: exponential growth factor per further retry.
    multiplier: float = 2.0
    #: cap on the raw (pre-jitter) backoff; None leaves it uncapped.
    max_backoff: Optional[float] = None
    #: fraction of the backoff randomized away (0 = deterministic full
    #: backoff, 1 = uniform in (0, backoff]) — decorrelates clients shed
    #: at the same instant so they do not re-arrive as one thundering
    #: herd.
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1 or None, got {self.max_attempts}"
            )
        if not self.base_backoff > 0:
            raise ValueError(
                f"base_backoff must be positive, got {self.base_backoff}"
            )
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_backoff is not None and self.max_backoff <= 0:
            raise ValueError(
                f"max_backoff must be positive, got {self.max_backoff}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def backoff(self, seed: int, index: int, attempt: int) -> float:
        """Backoff before the ``attempt``-th submission (attempt >= 1)."""
        raw = self.base_backoff * self.multiplier ** (attempt - 1)
        if self.max_backoff is not None:
            raw = min(raw, self.max_backoff)
        from ..sim.rng import derive_seed

        rng = random.Random(derive_seed(seed, f"retry:{index}:{attempt}"))
        return raw * (1.0 - self.jitter * rng.random())

    def is_final(self, attempt: int) -> bool:
        """Whether the ``attempt``-th submission is the client's last."""
        return (self.max_attempts is not None
                and attempt >= self.max_attempts - 1)


@dataclass(frozen=True)
class TraceGenSpec:
    """Knobs of the synthetic traffic model (all virtual-time units).

    The model's shape constants that nothing varies — the diurnal depth,
    one flash window per cycle, the session-length law, plan affinity,
    the interactive share and the DP strategy — are named in
    :mod:`repro.workloads.tracegen`, which reads them.
    """

    #: total queries in the generated trace.
    queries: int = 100
    seed: int = 0
    #: long-run average *query* rate (queries per virtual second).
    base_rate: float = 50.0
    #: virtual seconds per diurnal cycle (one "day").
    diurnal_period: float = 8.0
    #: rate multiplier inside the cycle's flash window.
    flash_magnitude: float = 6.0
    #: flash window length (virtual seconds).
    flash_duration: float = 0.4
    #: mean gap between queries of one session (exponential).
    session_gap: float = 0.02
    #: distinct tenants; sessions draw a tenant uniformly.
    tenants: int = 4
    #: correlated tenant-burst events across the whole trace.
    tenant_bursts: int = 2
    #: sessions started (near-)simultaneously by one burst.
    tenant_burst_sessions: int = 4
    #: end-to-end latency SLO stamped on interactive queries.
    interactive_slo: float = 2.0

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ValueError(f"queries must be >= 1, got {self.queries}")
        if not self.base_rate > 0 or not math.isfinite(self.base_rate):
            raise ValueError(
                f"base_rate must be positive and finite, got {self.base_rate}"
            )
        if self.diurnal_period <= 0:
            raise ValueError(
                f"diurnal_period must be positive, got {self.diurnal_period}"
            )
        if self.tenant_bursts < 0:
            raise ValueError(
                f"tenant_bursts must be >= 0, got {self.tenant_bursts}"
            )
        if self.flash_magnitude < 1:
            raise ValueError(
                f"flash_magnitude must be >= 1, got {self.flash_magnitude}"
            )
        if self.flash_duration <= 0:
            raise ValueError(
                f"flash_duration must be positive, got {self.flash_duration}"
            )
        if self.session_gap < 0:
            raise ValueError(
                f"session_gap must be >= 0, got {self.session_gap}"
            )
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.tenant_burst_sessions < 1:
            raise ValueError(
                f"tenant_burst_sessions must be >= 1, got "
                f"{self.tenant_burst_sessions}"
            )
        if self.interactive_slo <= 0:
            raise ValueError(
                f"interactive_slo must be positive, got {self.interactive_slo}"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one multi-query workload run."""

    #: total queries to submit and resolve (completed or shed).
    queries: int = 16
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: execution strategy for every query ("DP", "FP" or "SP").
    strategy: str = "DP"
    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: service-class mix as (class, proportion) pairs; each query draws
    #: its class from this distribution (proportions are normalized).
    #: Empty: every query runs as the default class, exactly the
    #: pre-service-class behaviour.
    classes: tuple[tuple[ServiceClass, float], ...] = ()
    #: client retry behaviour on shed queries; None (default) keeps the
    #: pre-retry behaviour — a shed query is simply gone.
    retry: Optional[RetryPolicySpec] = None
    #: admission-time cluster scheduler (see :mod:`repro.placement`);
    #: the default ``paper`` policy is a strict no-op.
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    #: master seed: plan choice, arrivals and all per-query engine
    #: randomness derive from it.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ValueError(f"queries must be >= 1, got {self.queries}")
        if self.strategy not in ("DP", "FP", "SP"):
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                "expected 'DP', 'FP' or 'SP'"
            )
        if any(
            fraction <= 0 or not math.isfinite(fraction)
            for _cls, fraction in self.classes
        ):
            raise ValueError("class proportions must be positive and finite")
        names = [cls.name for cls, _fraction in self.classes]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"duplicate service-class name(s) {dupes}: metrics are "
                "keyed by class name, so two distinct classes sharing one "
                "would be silently merged"
            )
