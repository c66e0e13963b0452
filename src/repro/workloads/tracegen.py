"""Synthetic trace generation: web-scale traffic shapes as replayable data.

The arrival processes of :mod:`repro.serving.arrivals` are stationary —
a Poisson or on/off rate that never drifts.  Real serving traffic is
not: request rates cycle with the day, individual users issue
heavy-tailed *sessions* of queries, flash crowds multiply load for short
windows, and a tenant's clients often burst together.  This module
renders those shapes into a concrete :class:`~repro.serving.trace.Trace`
— the same artifact a recorded run produces — so "millions of users"
traffic and recorded traffic replay through the exact same
:class:`~repro.serving.driver.WorkloadDriver` path.

Generation model (all draws from named
:class:`~repro.sim.rng.RandomStreams`, so a trace is a pure function of
its :class:`TraceGenSpec`):

* **Sessions, not queries, arrive.**  Session starts follow a
  non-homogeneous Poisson process (thinning): the base session rate is
  modulated by a sinusoidal *diurnal* cycle and by rectangular *flash
  crowd* windows.
* **Heavy-tailed sessions.**  Each session belongs to one user of one
  tenant and issues a Pareto-distributed number of queries (shape
  ``session_tail``; small shapes → a few users contribute a large share
  of queries), spaced by exponential intra-session gaps.
* **Correlated tenant bursts.**  A burst event starts several sessions
  of *one* tenant at (nearly) the same instant — the correlated-arrival
  pattern that stresses admission fairness across classes.
* **Per-tenant plan affinity.**  Each tenant favors one plan of the
  population (probability ``plan_affinity``), otherwise draws uniformly
  — so a tenant burst is also a *plan* hotspot.

The output is truncated to exactly ``queries`` queries in arrival order,
re-numbered ``0..n-1`` (query ids in a trace are submission-ordered),
each carrying its service class (interactive with an SLO, or batch) and
a per-query engine seed derived from the spec seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..serving.classes import BATCH, INTERACTIVE, ServiceClass
from ..serving.trace import Trace, TraceQuery
from ..sim.rng import RandomStreams, derive_seed

__all__ = ["TraceGenSpec", "generate_trace", "session_rate_at"]


@dataclass(frozen=True)
class TraceGenSpec:
    """Knobs of the synthetic traffic model (all virtual-time units)."""

    #: total queries in the generated trace.
    queries: int = 100
    seed: int = 0
    #: long-run average *query* rate (queries per virtual second).
    base_rate: float = 50.0
    #: relative diurnal modulation in [0, 1): 0 = flat, 0.8 = deep cycle.
    diurnal_amplitude: float = 0.6
    #: virtual seconds per diurnal cycle (one "day").
    diurnal_period: float = 8.0
    #: number of flash-crowd windows per diurnal cycle.
    flash_crowds: int = 1
    #: rate multiplier inside a flash window.
    flash_magnitude: float = 6.0
    #: flash window length (virtual seconds).
    flash_duration: float = 0.4
    #: mean queries per session (Pareto mean; the tail does the rest).
    session_mean_queries: float = 3.0
    #: Pareto shape of the session length (smaller = heavier tail; must
    #: be > 1 so the mean exists).
    session_tail: float = 1.6
    #: mean gap between queries of one session (exponential).
    session_gap: float = 0.02
    #: distinct tenants; sessions draw a tenant uniformly.
    tenants: int = 4
    #: correlated tenant-burst events across the whole trace.
    tenant_bursts: int = 2
    #: sessions started (near-)simultaneously by one burst.
    tenant_burst_sessions: int = 4
    #: probability a session uses its tenant's favored plan.
    plan_affinity: float = 0.5
    #: fraction of sessions that are interactive (SLO-bearing).
    interactive_fraction: float = 0.5
    #: end-to-end latency SLO stamped on interactive queries.
    interactive_slo: float = 2.0
    strategy: str = "DP"

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ValueError(f"queries must be >= 1, got {self.queries}")
        if not self.base_rate > 0 or not math.isfinite(self.base_rate):
            raise ValueError(
                f"base_rate must be positive and finite, got {self.base_rate}"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got "
                f"{self.diurnal_amplitude}"
            )
        if self.diurnal_period <= 0:
            raise ValueError(
                f"diurnal_period must be positive, got {self.diurnal_period}"
            )
        if self.flash_crowds < 0 or self.tenant_bursts < 0:
            raise ValueError("flash_crowds/tenant_bursts must be >= 0")
        if self.flash_magnitude < 1:
            raise ValueError(
                f"flash_magnitude must be >= 1, got {self.flash_magnitude}"
            )
        if self.flash_duration <= 0:
            raise ValueError(
                f"flash_duration must be positive, got {self.flash_duration}"
            )
        if self.session_mean_queries < 1:
            raise ValueError(
                f"session_mean_queries must be >= 1, got "
                f"{self.session_mean_queries}"
            )
        if self.session_tail <= 1:
            raise ValueError(
                f"session_tail must be > 1 (finite mean), got "
                f"{self.session_tail}"
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
        if not 0.0 <= self.plan_affinity <= 1.0:
            raise ValueError(
                f"plan_affinity must be in [0, 1], got {self.plan_affinity}"
            )
        if not 0.0 <= self.interactive_fraction <= 1.0:
            raise ValueError(
                f"interactive_fraction must be in [0, 1], got "
                f"{self.interactive_fraction}"
            )
        if self.interactive_slo <= 0:
            raise ValueError(
                f"interactive_slo must be positive, got {self.interactive_slo}"
            )
        if self.strategy not in ("DP", "FP", "SP"):
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                "expected 'DP', 'FP' or 'SP'"
            )


def session_rate_at(spec: TraceGenSpec, t: float) -> float:
    """Session-start rate λ(t): diurnal sinusoid times flash windows.

    Exposed so tests can check the generated arrivals against the model
    (a flash window really is denser; a diurnal trough really is not).
    """
    return _session_rate(spec, t, _flash_starts(spec))


def _session_rate(spec: TraceGenSpec, t: float,
                  flash_starts: list[float]) -> float:
    """λ(t) given ``_flash_starts(spec)`` (computed once per trace)."""
    base = spec.base_rate / spec.session_mean_queries
    phase = 2.0 * math.pi * (t / spec.diurnal_period)
    rate = base * (1.0 + spec.diurnal_amplitude * math.sin(phase))
    t_in_cycle = t % spec.diurnal_period
    for start in flash_starts:
        if start <= t_in_cycle < start + spec.flash_duration:
            rate *= spec.flash_magnitude
            break
    return rate


def _flash_starts(spec: TraceGenSpec) -> list[float]:
    """Flash-window start instants, evenly placed inside each cycle."""
    starts = []
    for k in range(spec.flash_crowds):
        # Fixed fractions of the cycle (not random): flash timing is part
        # of the scenario's shape, and fixed offsets keep tests sharp.
        frac = (k + 1) / (spec.flash_crowds + 1)
        starts.append(frac * spec.diurnal_period)
    return starts


def _peak_session_rate(spec: TraceGenSpec) -> float:
    peak = (spec.base_rate / spec.session_mean_queries
            * (1.0 + spec.diurnal_amplitude))
    if spec.flash_crowds > 0:
        peak *= spec.flash_magnitude
    return peak


def generate_trace(spec: TraceGenSpec, plan_count: int) -> Trace:
    """Render ``spec`` into a replayable :class:`Trace`.

    ``plan_count`` is the size of the plan population the trace will run
    against (plan indices are drawn in ``[0, plan_count)``).
    """
    if plan_count < 1:
        raise ValueError(f"plan_count must be >= 1, got {plan_count}")
    streams = RandomStreams(derive_seed(spec.seed, "tracegen"))
    arrivals_rng = streams.stream("sessions")
    shape_rng = streams.stream("shapes")

    interactive = dataclasses.replace(
        INTERACTIVE, latency_slo=spec.interactive_slo
    )
    has_classes = 0.0 < spec.interactive_fraction
    all_interactive = spec.interactive_fraction >= 1.0

    def session_class() -> ServiceClass:
        if not has_classes:
            return BATCH
        if all_interactive or shape_rng.random() < spec.interactive_fraction:
            return interactive
        return BATCH

    def session_queries(start: float, tenant: int) -> list[tuple]:
        """(time, tenant, plan_index, service_class) for one session."""
        # Pareto(shape a, scale m) has mean a*m/(a-1); pick the scale so
        # the session-length mean is session_mean_queries.
        a = spec.session_tail
        scale = spec.session_mean_queries * (a - 1.0) / a
        length = max(1, int(shape_rng.paretovariate(a) * scale + 0.5))
        if spec.plan_affinity > 0 and plan_count > 1 \
                and shape_rng.random() < spec.plan_affinity:
            plan_index = tenant % plan_count
        else:
            plan_index = shape_rng.randrange(plan_count)
        cls = session_class()
        out = []
        t = start
        for _ in range(length):
            out.append((t, tenant, plan_index, cls))
            if spec.session_gap > 0:
                t += shape_rng.expovariate(1.0 / spec.session_gap)
        return out

    # Session starts by thinning, until enough queries accumulate.  The
    # 2x headroom bounds the truncation bias at the trace tail (sessions
    # starting late would otherwise be under-sampled near the cut).
    peak = _peak_session_rate(spec)
    flash_starts = _flash_starts(spec)
    raw: list[tuple] = []
    t = 0.0
    while len(raw) < 2 * spec.queries:
        t += arrivals_rng.expovariate(peak)
        if arrivals_rng.random() * peak > _session_rate(spec, t, flash_starts):
            continue
        tenant = shape_rng.randrange(spec.tenants)
        raw.extend(session_queries(t, tenant))

    # Correlated tenant bursts: one tenant's sessions landing together.
    if spec.tenant_bursts > 0:
        horizon = max(q[0] for q in raw)
        for b in range(spec.tenant_bursts):
            burst_t = horizon * (b + 1) / (spec.tenant_bursts + 1)
            tenant = shape_rng.randrange(spec.tenants)
            for s in range(spec.tenant_burst_sessions):
                # Sessions of one burst start within a millisecond-scale
                # spread, not the same instant: correlated, not colliding.
                offset = s * max(spec.session_gap, 1e-3) * 0.25
                raw.extend(session_queries(burst_t + offset, tenant))

    raw.sort(key=lambda q: q[0])
    raw = raw[: spec.queries]
    queries = tuple(
        TraceQuery(
            query_id=index,
            arrival_time=when,
            plan_index=plan_index,
            strategy=spec.strategy,
            service_class=cls if has_classes else None,
            params_seed=derive_seed(spec.seed, f"trace-query:{index}"),
        )
        for index, (when, _tenant, plan_index, cls) in enumerate(raw)
    )
    return Trace(
        queries=queries,
        arrival_kind="trace",
        strategy=spec.strategy,
        seed=spec.seed,
    )
