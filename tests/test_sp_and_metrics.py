"""Unit tests for the SP executor internals and the metrics objects."""

import pytest

from repro.engine import (
    ExecutionMetrics,
    QueryExecutor,
    Substrate,
    SynchronousPipeliningExecutor,
)
from repro.engine.metrics import ThreadTime
from repro.optimizer import chain_total_order
from repro.sim import MachineConfig
from repro.workloads import pipeline_chain_scenario, two_node_join_scenario


class TestExecutionMetrics:
    def test_idle_fraction_complements_busy(self):
        threads = [ThreadTime() for _ in range(4)]
        for thread in threads:
            thread.cpu, thread.io_wait, thread.no_work = 7.0, 2.0, 1.0
        threads[0].cpu_contention = 5.0  # not folded: a live sum
        metrics = ExecutionMetrics(response_time=10.0)
        metrics.fold_threads(threads)
        assert (metrics.thread_count, metrics.thread_busy_time,
                metrics.thread_io_wait_time, metrics.thread_no_work_time,
                metrics.cpu_contention_time) == (4, 28.0, 8.0, 4.0, 0.0)
        # "Idle" is everything but ``cpu``: I/O waits and no work here.
        assert metrics.idle_fraction() == pytest.approx(0.3)

    def test_zero_response_time_safe(self):
        metrics = ExecutionMetrics()
        metrics.fold_threads([])
        assert metrics.thread_count == 0
        assert metrics.idle_fraction() == 0.0

    def test_idle_fraction_clamped(self):
        """A charge in flight at completion runs past the response time,
        so ``cpu`` can exceed it; idle then reads 0, never below."""
        metrics = ExecutionMetrics(response_time=1.0, thread_count=1,
                                   thread_busy_time=2.0)
        assert metrics.idle_fraction() == 0.0

    def test_result_str_mentions_key_facts(self):
        from repro.engine import ExecutionResult
        result = ExecutionResult(
            plan_label="p", strategy="DP", config_label="2x4",
            response_time=1.25, metrics=ExecutionMetrics(
                response_time=1.25, thread_count=8, thread_busy_time=8.0,
                result_tuples=123,
            ),
        )
        text = str(result)
        assert "DP" in text and "2x4" in text and "123" in text


class TestSPExecutor:
    def test_rejects_multi_node(self):
        from repro.engine import StrategyError
        plan, _ = two_node_join_scenario()
        with pytest.raises(StrategyError):
            SynchronousPipeliningExecutor(
                plan, MachineConfig(nodes=2, processors_per_node=2)
            )

    def test_chains_execute_in_schedule_order(self):
        """SP runs chains one at a time in the plan's total order."""
        plan, _ = pipeline_chain_scenario(nodes=1, processors_per_node=2,
                                          base_tuples=500)
        order = chain_total_order(plan.operators)
        # The driving scan's chain is last (it probes every hash table).
        longest = max(plan.operators.chains, key=len)
        assert order[-1] == longest.chain_id

    def test_busy_time_bounded_by_response(self):
        """Every SP thread lives from launch to the last chain's barrier,
        so its four slots sum to the response time."""
        plan, config = pipeline_chain_scenario(nodes=1, processors_per_node=4,
                                               base_tuples=1000)
        executor = QueryExecutor(plan, config, strategy="SP")
        substrate = Substrate(config, executor.params)
        execution = executor.launch(substrate)
        substrate.env.run()
        m = executor.collect(execution).metrics
        assert len(execution.threads) == m.thread_count == 4
        for thread in execution.threads:
            lifetime = (thread.cpu + thread.cpu_contention + thread.io_wait
                        + thread.no_work)
            assert lifetime == pytest.approx(m.response_time, rel=1e-9,
                                             abs=0.0)
        assert 0 < m.thread_busy_time < m.response_time * m.thread_count
        assert (m.thread_busy_time + m.cpu_contention_time
                + m.thread_io_wait_time + m.thread_no_work_time
                == pytest.approx(m.response_time * m.thread_count,
                                 rel=1e-9, abs=0.0))

    def test_no_network_traffic(self):
        plan, config = pipeline_chain_scenario(nodes=1, processors_per_node=4,
                                               base_tuples=1000)
        result = QueryExecutor(plan, config, strategy="SP").run()
        assert result.metrics.messages_sent == 0
        assert result.metrics.loadbalance_bytes == 0

    def test_deterministic(self):
        plan, config = pipeline_chain_scenario(nodes=1, processors_per_node=4,
                                               base_tuples=1000)
        a = QueryExecutor(plan, config, strategy="SP").run()
        b = QueryExecutor(plan, config, strategy="SP").run()
        assert a.response_time == b.response_time
        assert a.metrics.result_tuples == b.metrics.result_tuples

    def test_more_processors_not_slower(self):
        plan2, config2 = pipeline_chain_scenario(nodes=1, processors_per_node=2,
                                                 base_tuples=2000)
        plan8, config8 = pipeline_chain_scenario(nodes=1, processors_per_node=8,
                                                 base_tuples=2000)
        t2 = QueryExecutor(plan2, config2, strategy="SP").run().response_time
        t8 = QueryExecutor(plan8, config8, strategy="SP").run().response_time
        assert t8 < t2

    def test_scan_count_matches_base_data(self):
        plan, config = pipeline_chain_scenario(nodes=1, processors_per_node=4,
                                               base_tuples=1500)
        result = QueryExecutor(plan, config, strategy="SP").run()
        expected = sum(r.cardinality for r in plan.graph.relations.values())
        assert result.metrics.tuples_scanned == expected
