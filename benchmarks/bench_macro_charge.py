"""Benchmark: parallel sweep fan-out, emitting BENCH_macro_charge.json.

``class_sweep_mpl8``: the service-class sweep (quick grid, MPL 8 only)
*sequential* versus ``processes=0`` (one worker per core).  The parallel run
must preserve the sweep's headline results: priority-vs-FIFO interactive
p95 improvement with batch throughput within 20%.  ``parallel`` divides
the sweep wall-clock by (nearly) the core count, so the JSON carries
``cpu_count`` alongside.  (The Section 5.1.2 mix cells this file used to
time are the ledger's ``mix_mpl8`` workload now.)
"""

import json
import os
import time
from pathlib import Path

from repro.experiments import service_class_sweep
from repro.experiments.config import ExperimentOptions

OUTPUT = Path(__file__).with_name("BENCH_macro_charge.json")

#: the quick class-sweep configuration (the acceptance workload).
#: ``net_sweep=False`` keeps the measured cell set identical to the
#: seed's sweep (the finite-bandwidth column postdates the baseline).
SWEEP_KWARGS = dict(mpl_levels=(8,), queries_per_cell=10,
                    nodes=2, processors_per_node=2, base_tuples=1000,
                    net_sweep=False)


def best_sweep_wall(repeats: int = 3, **kwargs):
    options = ExperimentOptions.quick()
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = service_class_sweep.run(options, **SWEEP_KWARGS, **kwargs)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return best, result


def test_parallel_sweep(benchmark):
    def measure():
        seq_wall, _seq = best_sweep_wall(processes=None)
        par_wall, par = best_sweep_wall(processes=0)
        return {"class_sweep_mpl8": {
            "sequential_wall": round(seq_wall, 3),
            "parallel_wall": round(par_wall, 3),
            "speedup": round(seq_wall / par_wall, 2),
            "cpu_count": os.cpu_count() or 1,
        }}, par

    report, par = benchmark.pedantic(measure, rounds=1, iterations=1,
                                     warmup_rounds=0)
    # The parallel sweep preserves the headline orderings:
    # priority-vs-FIFO interactive p95 and batch-throughput-within-20%.
    def closed(discipline, name):
        return par.cell(column="closed", discipline=discipline, mpl=8,
                        service_class=name)

    assert (closed("priority", "interactive").p95_latency
            < closed("fifo", "interactive").p95_latency)
    assert (closed("priority", "batch").throughput
            >= 0.8 * closed("fifo", "batch").throughput)

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(json.dumps(report, indent=2))
