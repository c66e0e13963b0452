"""Isolating probes: one layer exercised alone through its public surface.

A probe bounds a layer's share of a workload from outside: the kernel
storms time ``sim.Environment`` / ``Resource`` with nothing above them,
the tiny-query probe times the engine with no serving layer, the shed
probe times the serving layer with (almost) no engine.  Every probe is a
fixed amount of work and returns host seconds for it; sizes shrink under
``--smoke`` only.

Imports of ``repro`` happen inside the functions: the worker puts the
checkout's ``src`` on ``sys.path`` before it calls any of them.
"""

from __future__ import annotations

import statistics
import time


def _median_rate(storm, repeats: int = 3) -> float:
    rates = []
    for _ in range(repeats):
        events, elapsed = storm()
        rates.append(events / elapsed)
    return statistics.median(rates)


def timer_storm(processes: int, hops: int) -> tuple[int, float]:
    """``processes`` processes each hopping over ``hops`` timeouts."""
    from repro.sim import Environment

    env = Environment()

    def hopper(i):
        for _ in range(hops):
            yield env.timeout((i % 7 + 1) * 1e-4)

    for i in range(processes):
        env.process(hopper(i))
    start = time.perf_counter()
    env.run()
    return processes * hops, time.perf_counter() - start


def resource_storm(discipline: str, workers: int,
                   charges: int) -> tuple[int, float]:
    """Contended charges through one capacity-4 resource."""
    from repro.sim import ChargeTag, Environment, Resource, make_discipline

    env = Environment()
    if discipline == "fifo":
        resource = Resource(env, capacity=4, name="cpu")
    else:
        resource = Resource(env, capacity=4, name="cpu",
                            discipline=make_discipline(discipline))

    def worker(i):
        tag = ChargeTag(key=f"c{i % 5}", weight=float(i % 3 + 1),
                        priority=i % 4)
        for _ in range(charges):
            yield from resource.use(1e-4 * (i % 5 + 1), tag)

    for i in range(workers):
        env.process(worker(i))
    start = time.perf_counter()
    env.run()
    return workers * charges, time.perf_counter() - start


def kernel_rates(smoke: bool) -> dict:
    """Events per host second of the bare kernel, per probe."""
    scale = 4 if smoke else 1
    rates = {
        "sim.timer_events_per_s": _median_rate(
            lambda: timer_storm(200 // scale, 400 // scale)
        ),
    }
    for discipline in ("fifo", "fair", "priority"):
        rates[f"sim.resource_{discipline}_events_per_s"] = _median_rate(
            lambda: resource_storm(discipline, 100 // scale, 200 // scale)
        )
    return rates


def tiny_query_us(tiny_spec, smoke: bool) -> float:
    """Host µs per ``repro.run_query`` of the ``replay_tiny`` plan.

    Build + 8 activations + teardown, no serving layer.
    """
    import repro

    count = 200 if smoke else 2000
    repro.run_query(tiny_spec)  # warm the plan cache outside the timing
    start = time.perf_counter()
    for _ in range(count):
        repro.run_query(tiny_spec)
    return (time.perf_counter() - start) / count * 1e6


def shed_us_per_query(tiny_spec, smoke: bool) -> tuple[float, float]:
    """Host µs per query when (nearly) every query is shed unadmitted.

    The ``replay_tiny`` plan and trace shape, offered 100x faster to
    MPL 1 with a 1 ms queue timeout, so over 99 % of the queries cost
    only submission, queueing and the shed.  Returns ``(us per query,
    shed share)``.
    """
    import repro
    from repro.api import replace_path

    queries = 500 if smoke else 5000
    spec = replace_path(tiny_spec, "trace.generate.queries", queries)
    rate = tiny_spec.trace.generate.base_rate * 100.0
    spec = replace_path(spec, "trace.generate.base_rate", rate)
    spec = replace_path(spec, "trace.generate.diurnal_period",
                        2.0 * queries / rate)
    spec = replace_path(spec, "workload.policy.max_multiprogramming", 1)
    spec = replace_path(spec, "workload.policy.queue_timeout", 0.001)
    start = time.perf_counter()
    result = repro.run(spec)
    elapsed = time.perf_counter() - start
    return elapsed / queries * 1e6, result.metrics.shed_count / queries


def tracegen_seconds(tiny_spec) -> tuple[float, int]:
    """Host seconds for ``generate_trace`` of the ``replay_tiny`` model."""
    from repro.workloads.tracegen import generate_trace

    start = time.perf_counter()
    trace = generate_trace(tiny_spec.trace.generate, 1)
    return time.perf_counter() - start, len(trace.queries)


def us_per_activation(spec, strategy: str, plan,
                      target_activations: int) -> float:
    """Host µs per activation of ``plan`` executed alone under ``strategy``.

    Repeats ``repro.run_query`` until ``target_activations`` have been
    processed (the count per execution repeats exactly, so the amount of
    work is fixed).
    """
    import repro
    from repro.api import replace_path

    spec = replace_path(spec, "workload.strategy", strategy)
    activations = 0
    start = time.perf_counter()
    while activations < target_activations:
        result = repro.run_query(spec, plans=(plan,))
        activations += result.metrics.activations_processed
    return (time.perf_counter() - start) / activations * 1e6
