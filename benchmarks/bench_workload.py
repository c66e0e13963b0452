"""Benchmark: the serving-layer workload sweep (MPL x skew x strategy).

Runs a reduced sweep on a 2x4 machine — queries drawn from the mixed
Section 5.1.2 plan population — and prints the same table the full
experiment reports.  Expected shape: DP throughput >= FP throughput at
every multiprogramming level under skew 0.8, and DP ships less
load-balancing data per query.
"""

from conftest import run_once

from repro.experiments import workload_sweep
from repro.experiments.config import ExperimentOptions


def test_workload_sweep(benchmark):
    result = run_once(
        benchmark, workload_sweep.run, ExperimentOptions.quick(),
        nodes=2, processors_per_node=4,
        queries_per_cell=8, mpl_levels=(1, 4, 8), skew_levels=(0.0, 0.8),
    )
    print()
    print(result.table())
    for mpl in (1, 4, 8):
        dp = result.cell(strategy="DP", skew=0.8, mpl=mpl)
        fp = result.cell(strategy="FP", skew=0.8, mpl=mpl)
        assert dp.throughput >= fp.throughput, (
            f"DP should meet or beat FP throughput under skew at MPL {mpl}"
        )
    # The Section 5.3 transfer-volume ordering (FP ships more LB data) is
    # a single-query claim: it must hold at MPL 1; under multiprogramming
    # the mixed plan population can legitimately invert it per cell.
    dp1 = result.cell(strategy="DP", skew=0.8, mpl=1)
    fp1 = result.cell(strategy="FP", skew=0.8, mpl=1)
    assert dp1.steal_bytes <= fp1.steal_bytes, (
        "DP should ship less LB data than FP in the single-query regime"
    )
    # Saturation: latency grows with multiprogramming for both strategies.
    for strategy in ("DP", "FP"):
        p95s = [cell.p95_latency
                for cell in result.select(strategy=strategy, skew=0.8)]
        assert p95s[0] < p95s[-1], f"{strategy} p95 should rise with MPL"
