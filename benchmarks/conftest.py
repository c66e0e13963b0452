"""Shared helper of the pytest-benchmark benches.

``bench_workload.py`` and ``bench_ablations.py`` run their sweeps at
reduced size (few plans, small scale), once each; absolute timings come
from pytest-benchmark.
"""


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
