"""Stress tier: many concurrent queries on the hierarchical 4x8 machine.

The heavy runs are marked ``slow`` and excluded from tier-1 (see
``pytest.ini``); they are part of the slow tier, which ``make
check-slow`` (``pytest -m slow``) runs over all of ``tests/``, beside the
overload and workload-sweep contracts in ``test_experiments.py``.  A
small smoke variant stays in tier-1 so the multi-query path is always
exercised.
"""

import dataclasses

import pytest

from repro.catalog import SkewSpec
from repro.engine import ExecutionParams
from repro.serving import (AdmissionPolicy, ArrivalSpec, BATCH, INTERACTIVE,
                           WorkloadDriver, WorkloadSpec)
from repro.workloads import pipeline_chain_scenario


def stress_spec(queries, arrival, mpl, seed=1):
    return WorkloadSpec(
        queries=queries,
        arrival=arrival,
        strategy="DP",
        policy=AdmissionPolicy(max_multiprogramming=mpl),
        seed=seed,
    )


def assert_workload_sane(plan, metrics, queries):
    assert metrics.completed == queries
    assert metrics.unfinished == 0
    expected_scan = sum(r.cardinality for r in plan.graph.relations.values())
    for completion in metrics.completions:
        m = completion.result.metrics
        assert m.tuples_scanned == expected_scan
        assert m.activations_processed == (
            m.trigger_activations + m.data_activations
        )


@pytest.mark.slow
class TestServingStress4x8:
    """50+ concurrent queries on the paper's 4x8 hierarchical machine."""

    def test_open_loop_underload_keeps_queueing_bounded(self):
        # Offered load ~60% of the measured closed-loop capacity
        # (~8 q/s at MPL 12): admission queues must stay shallow, so
        # queueing delay is bounded by the execution time scale instead
        # of growing with the run length.
        plan, config = pipeline_chain_scenario(
            nodes=4, processors_per_node=8, base_tuples=4000,
        )
        params = ExecutionParams(
            skew=SkewSpec.uniform_redistribution(0.8), seed=2
        )
        spec = stress_spec(
            50, ArrivalSpec(kind="poisson", rate=5.0), mpl=12, seed=2
        )
        metrics = WorkloadDriver(plan, config, spec, params).run().metrics
        assert_workload_sane(plan, metrics, 50)
        mean_exec = metrics.mean_execution_time()
        assert metrics.mean_queueing_delay() <= 2.0 * mean_exec
        assert metrics.max_queueing_delay() <= metrics.makespan / 2.0
        assert metrics.p99_latency <= 10.0 * mean_exec

    def test_bursty_arrivals_drain(self):
        plan, config = pipeline_chain_scenario(
            nodes=4, processors_per_node=8, base_tuples=4000,
        )
        spec = stress_spec(
            50, ArrivalSpec(kind="bursty", rate=6.0, burst_size=8,
                            burst_speedup=20.0),
            mpl=12, seed=3,
        )
        metrics = WorkloadDriver(plan, config, spec).run().metrics
        assert_workload_sane(plan, metrics, 50)
        # Bursts must actually produce admission queueing...
        assert metrics.max_queueing_delay() > 0.0
        # ...which the lulls drain: delays stay bounded by the makespan.
        assert metrics.max_queueing_delay() <= metrics.makespan / 2.0

    def test_cross_query_stealing_at_50_query_scale(self):
        # The skewed stress scenario at scale: 50 queries of mixed sizes
        # (a large skewed chain and a small one) on the paper's 4x8
        # machine with the cross-query broker on vs off.  The broker must
        # participate (rounds fire, activations move through the
        # five-condition protocol), keep every conservation invariant,
        # and not hurt the makespan.  Scaled parameters, so CPU — the
        # resource the broker rebalances — actually matters.
        from repro.experiments.config import scaled_execution_params

        big, config = pipeline_chain_scenario(
            nodes=4, processors_per_node=8, base_tuples=6000,
        )
        small, _ = pipeline_chain_scenario(
            nodes=4, processors_per_node=8, base_tuples=800,
        )
        results = {}
        for steal in (True, False):
            params = scaled_execution_params(
                skew=SkewSpec.uniform_redistribution(1.0), seed=6,
                cross_query_steal=steal,
            )
            spec = stress_spec(
                50, ArrivalSpec(kind="poisson", rate=60.0), mpl=12, seed=6,
            )
            metrics = WorkloadDriver(
                [big, small], config, spec, params
            ).run().metrics
            assert metrics.completed == 50
            for completion in metrics.completions:
                m = completion.result.metrics
                assert m.activations_processed == (
                    m.trigger_activations + m.data_activations
                )
            results[steal] = metrics
        assert results[True].total_cross_steal_rounds() > 0
        assert results[False].total_cross_steal_rounds() == 0
        assert results[True].broker_notifications > 0
        assert results[True].makespan <= results[False].makespan * 1.02

    def test_service_classes_under_stress(self):
        # 50 mixed interactive/batch queries under priority preemption:
        # every class gate holds, the run is conservative, and the
        # interactive class's p95 stays clearly below batch's.
        from repro.experiments.config import scaled_execution_params

        plan, config = pipeline_chain_scenario(
            nodes=4, processors_per_node=8, base_tuples=6000,
        )
        params = scaled_execution_params(
            skew=SkewSpec.uniform_redistribution(0.8), seed=7,
            cpu_discipline="priority",
        )
        interactive = dataclasses.replace(INTERACTIVE, latency_slo=60.0)
        spec = WorkloadSpec(
            queries=50,
            arrival=ArrivalSpec(kind="closed", population=12),
            policy=AdmissionPolicy(max_multiprogramming=12),
            classes=((interactive, 1.0), (BATCH, 2.0)),
            seed=7,
        )
        metrics = WorkloadDriver(plan, config, spec, params).run().metrics
        assert_workload_sane(plan, metrics, 50)
        assert set(metrics.class_names()) == {"interactive", "batch"}
        assert (metrics.class_latency_percentile("interactive", 95.0)
                < metrics.class_latency_percentile("batch", 95.0))


class TestServingStress50Tier1:
    """The 50-query closed-loop stress shape, promoted into tier-1.

    Every push exercises the analytic FIFO at real multiprogramming
    scale — 50 queries on the paper's 4x8 machine, MPL 12 — and the run
    stays well inside the tier-1 time budget (<10s).  The open-loop,
    bursty, cross-query-stealing and service-class variants remain in
    the slow tier above.
    """

    def test_closed_loop_50_queries(self):
        plan, config = pipeline_chain_scenario(
            nodes=4, processors_per_node=8, base_tuples=4000,
        )
        params = ExecutionParams(
            skew=SkewSpec.uniform_redistribution(0.8), seed=1,
        )
        spec = stress_spec(
            50, ArrivalSpec(kind="closed", population=12), mpl=12
        )
        driver = WorkloadDriver(plan, config, spec, params)
        coordinator = driver.build_coordinator()
        metrics = coordinator.run()
        assert_workload_sane(plan, metrics, 50)
        assert coordinator.peak_running <= 12
        assert coordinator.peak_running >= 8
        assert metrics.total_cpu_contention() > 0.0


class TestServingStressSmoke:
    """Tier-1-sized version of the stress shape (always runs)."""

    def test_smoke_12_queries_2x2(self):
        plan, config = pipeline_chain_scenario(
            nodes=2, processors_per_node=2, base_tuples=800,
        )
        params = ExecutionParams(
            skew=SkewSpec.uniform_redistribution(0.8), seed=4
        )
        spec = stress_spec(
            12, ArrivalSpec(kind="bursty", rate=60.0, burst_size=6), mpl=4,
            seed=4,
        )
        driver = WorkloadDriver(plan, config, spec, params)
        coordinator = driver.build_coordinator()
        metrics = coordinator.run()
        assert_workload_sane(plan, metrics, 12)
        assert coordinator.peak_running <= 4
