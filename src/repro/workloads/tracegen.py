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
its :class:`~repro.serving.spec.TraceGenSpec`):

* **Sessions, not queries, arrive.**  Session starts follow a
  non-homogeneous Poisson process (thinning): the base session rate is
  modulated by a sinusoidal *diurnal* cycle (depth
  :data:`DIURNAL_AMPLITUDE`) and by one rectangular *flash crowd*
  window that opens mid-cycle.
* **Heavy-tailed sessions.**  Each session belongs to one user of one
  tenant and issues a Pareto-distributed number of queries (mean
  :data:`SESSION_MEAN_QUERIES`, shape :data:`SESSION_TAIL`: a few users
  contribute a large share of queries), spaced by exponential
  intra-session gaps.
* **Correlated tenant bursts.**  A burst event starts several sessions
  of *one* tenant at (nearly) the same instant — the correlated-arrival
  pattern that stresses admission fairness across classes.
* **Per-tenant plan affinity.**  Each tenant favors one plan of the
  population (probability :data:`PLAN_AFFINITY`), otherwise draws
  uniformly — so a tenant burst is also a *plan* hotspot.

The output is truncated to exactly ``queries`` queries in arrival order,
re-numbered ``0..n-1`` (query ids in a trace are submission-ordered),
each run under DP and carrying its service class (interactive with an
SLO for a :data:`INTERACTIVE_FRACTION` share of the sessions, batch
otherwise) and a per-query engine seed derived from the spec seed.

The shape constants are the values every trace experiment, example and
ledger workload ran with; none of them varied one.
"""

from __future__ import annotations

import dataclasses
import math

from ..serving.spec import BATCH, INTERACTIVE, TraceGenSpec
from ..serving.trace import Trace, TraceQuery
from ..sim.rng import RandomStreams, derive_seed

__all__ = ["generate_trace", "session_rate_at"]

#: relative diurnal modulation: the rate swings +-60 % around its mean.
DIURNAL_AMPLITUDE = 0.6
#: mean queries per session (the Pareto mean).
SESSION_MEAN_QUERIES = 3.0
#: Pareto shape of the session length (> 1, so the mean exists).
SESSION_TAIL = 1.6
#: probability that a session runs its tenant's favoured plan.
PLAN_AFFINITY = 0.5
#: share of sessions that are interactive (SLO-bearing); the rest batch.
INTERACTIVE_FRACTION = 0.5
#: the strategy every generated query runs under.
STRATEGY = "DP"

#: Pareto(shape a, scale m) has mean a*m/(a-1): the scale that makes the
#: session-length mean SESSION_MEAN_QUERIES.
_PARETO_SCALE = SESSION_MEAN_QUERIES * (SESSION_TAIL - 1.0) / SESSION_TAIL


def session_rate_at(spec: TraceGenSpec, t: float) -> float:
    """Session-start rate λ(t): diurnal sinusoid times the flash window.

    Exposed so tests can check the generated arrivals against the model
    (a flash window really is denser; a diurnal trough really is not).
    The window opens half-way through each cycle — a fixed offset, not
    a random one: flash timing is part of the scenario's shape, and a
    fixed offset keeps tests sharp.
    """
    base = spec.base_rate / SESSION_MEAN_QUERIES
    phase = 2.0 * math.pi * (t / spec.diurnal_period)
    rate = base * (1.0 + DIURNAL_AMPLITUDE * math.sin(phase))
    start = 0.5 * spec.diurnal_period
    if start <= t % spec.diurnal_period < start + spec.flash_duration:
        rate *= spec.flash_magnitude
    return rate


def _peak_session_rate(spec: TraceGenSpec) -> float:
    return (spec.base_rate / SESSION_MEAN_QUERIES
            * (1.0 + DIURNAL_AMPLITUDE) * spec.flash_magnitude)


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

    def session_queries(start: float, tenant: int) -> list[tuple]:
        """(time, tenant, plan_index, service_class) for one session."""
        length = max(1, int(shape_rng.paretovariate(SESSION_TAIL)
                            * _PARETO_SCALE + 0.5))
        if plan_count > 1 and shape_rng.random() < PLAN_AFFINITY:
            plan_index = tenant % plan_count
        else:
            plan_index = shape_rng.randrange(plan_count)
        cls = (interactive if shape_rng.random() < INTERACTIVE_FRACTION
               else BATCH)
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
    raw: list[tuple] = []
    t = 0.0
    while len(raw) < 2 * spec.queries:
        t += arrivals_rng.expovariate(peak)
        if arrivals_rng.random() * peak > session_rate_at(spec, t):
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
            strategy=STRATEGY,
            service_class=cls,
            params_seed=derive_seed(spec.seed, f"trace-query:{index}"),
        )
        for index, (when, _tenant, plan_index, cls) in enumerate(raw)
    )
    return Trace(
        queries=queries,
        arrival_kind="trace",
        strategy=STRATEGY,
        seed=spec.seed,
    )
