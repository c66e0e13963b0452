"""Query arrival processes: open-loop (Poisson, bursty) and closed-loop.

The paper evaluates isolated queries; a serving system sees *streams*.
Two families, both standard in the DLB literature (DynaHash judges
rebalancing under sustained mixed workloads; the empirical DLB surveys
stress that policies behave qualitatively differently under contention):

* **Open loop** — arrivals are generated by an external population that
  does not react to the system.  ``poisson`` draws exponential
  inter-arrival gaps at ``rate`` queries per virtual second; ``bursty``
  is a two-state on/off modulated Poisson process (a burst of
  geometrically many closely spaced arrivals, then a long lull) with the
  same long-run ``rate``, stressing admission control with deep transient
  queues.
* **Closed loop** — ``population`` clients each submit a query, wait for
  its completion, and submit the next at once.  The
  multiprogramming level is bounded by the population by construction;
  sweeping it is how the workload experiments control load.

All draws come from one named :class:`~repro.sim.rng.RandomStreams`
stream, so an arrival schedule is a pure function of ``(spec, seed,
count)`` — the determinism regression tests depend on that.
"""

from __future__ import annotations

from typing import List

from ..sim.rng import RandomStreams
from .spec import ArrivalSpec

__all__ = ["sample_arrival_times"]


def sample_arrival_times(spec: ArrivalSpec, count: int,
                         streams: RandomStreams) -> List[float]:
    """Arrival timestamps for ``count`` open-loop queries.

    Pure and deterministic: the draws come from the factory's
    ``"arrivals"`` stream only.  Closed-loop specs have no schedule (the
    clients' completions drive submissions) and raise.
    """
    if not spec.open_loop:
        raise ValueError("closed-loop arrivals are driven by completions, "
                         "not a precomputed schedule")
    rng = streams.stream("arrivals")
    times: List[float] = []
    now = 0.0
    if spec.kind == "poisson":
        for _ in range(count):
            now += rng.expovariate(spec.rate)
            times.append(now)
        return times
    # Bursty: geometric burst sizes; intra-burst gaps at rate *
    # burst_speedup; inter-burst lulls sized so the long-run rate is
    # preserved: E[cycle] = burst_size / rate.
    mean_cycle = spec.burst_size / spec.rate
    intra_rate = spec.rate * spec.burst_speedup
    mean_intra_total = (spec.burst_size - 1) / intra_rate
    mean_lull = max(mean_cycle - mean_intra_total, 1e-9)
    while len(times) < count:
        burst = 1
        # Geometric with mean burst_size: success prob 1/burst_size.
        while (spec.burst_size > 1
               and rng.random() > 1.0 / spec.burst_size):
            burst += 1
        for index in range(burst):
            if len(times) >= count:
                break
            if index > 0:
                now += rng.expovariate(intra_rate)
            times.append(now)
        now += rng.expovariate(1.0 / mean_lull)
    return times
