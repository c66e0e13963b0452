"""Benchmark: raw kernel throughput (events/second), emitting BENCH_kernel.json.

Measures the discrete-event kernel itself — the floor under every other
number in this repo — with two storms:

* ``timer``: pure heap churn (processes hopping over timeouts), the cost
  of one schedule/fire/resume cycle;
* ``resource``: contended :class:`~repro.sim.core.Resource` charges, the
  serving layer's processor-sharing hot path, measured per discipline.

Writes ``BENCH_kernel.json`` next to this file so the perf trajectory is
machine-readable across PRs (the history of each optimization pass is in
CHANGES.md).
"""

import json
import time
from pathlib import Path

from repro.sim.core import ChargeTag, Environment, Resource, make_discipline

OUTPUT = Path(__file__).with_name("BENCH_kernel.json")


def timer_storm(n_procs: int = 200, hops: int = 400) -> tuple[int, float]:
    """``n_procs`` processes each hopping over ``hops`` timeouts."""
    env = Environment()

    def hopper(i):
        for _ in range(hops):
            yield env.timeout((i % 7 + 1) * 1e-4)

    for i in range(n_procs):
        env.process(hopper(i))
    start = time.perf_counter()
    env.run()
    return n_procs * hops, time.perf_counter() - start


def resource_storm(discipline: str, n_procs: int = 100,
                   charges: int = 200) -> tuple[int, float]:
    """Contended charges through one resource under ``discipline``."""
    env = Environment()
    resource = Resource(env, capacity=4, name="cpu",
                        discipline=make_discipline(discipline))

    def worker(i):
        tag = ChargeTag(key=f"c{i % 5}", weight=float(i % 3 + 1),
                        priority=i % 4)
        for _ in range(charges):
            yield from resource.use(1e-4 * (i % 5 + 1), tag)

    for i in range(n_procs):
        env.process(worker(i))
    start = time.perf_counter()
    env.run()
    return n_procs * charges, time.perf_counter() - start


def best_rate(fn, *args, repeats: int = 3) -> float:
    best = 0.0
    for _ in range(repeats):
        events, elapsed = fn(*args)
        best = max(best, events / elapsed)
    return best


def test_kernel_events_per_second(benchmark):
    def measure():
        rates = {"timer": best_rate(timer_storm)}
        for discipline in ("fifo", "fair", "priority"):
            rates[f"resource_{discipline}"] = best_rate(
                resource_storm, discipline
            )
        return rates

    rates = benchmark.pedantic(measure, rounds=1, iterations=1,
                               warmup_rounds=0)
    report = {"events_per_second": {k: round(v) for k, v in rates.items()}}
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print()
    for name, rate in rates.items():
        print(f"  {name}: {rate:,.0f} events/sec")
    # Generous floors: catch order-of-magnitude regressions, not machine
    # noise (CI machines vary; the JSON carries the precise numbers).
    assert rates["timer"] > 50_000
    for discipline in ("fifo", "fair", "priority"):
        assert rates[f"resource_{discipline}"] > 20_000
