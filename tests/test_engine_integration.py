"""Integration tests: whole plans through the engine, all strategies.

These tests assert the *semantic* invariants of an execution —
conservation of tuples through the pipeline, termination, determinism —
and the paper's qualitative relationships (SP <= DP <= FP on
shared-memory; stealing only when starving; skew resilience).
"""

import pytest

from repro.catalog import Relation, SkewSpec
from repro.engine import ExecutionParams, QueryExecutor, StrategyError
from repro.optimizer import BaseNode, JoinNode, compile_plan
from repro.query import JoinEdge, QueryGraph
from repro.sim import MachineConfig
from repro.workloads import pipeline_chain_scenario, two_node_join_scenario


def single_join_plan(config, r=2000, s=4000, label="t", sel=None):
    """R join S with |result| = |S|, or ``r * s * sel`` given ``sel``."""
    sel = sel or 1.0 / r
    graph = QueryGraph(
        [Relation("R", r), Relation("S", s)], [JoinEdge("R", "S", sel)]
    )
    tree = JoinNode(BaseNode(graph.relation("R")), BaseNode(graph.relation("S")), sel)
    return compile_plan(graph, tree, config, label=label)


def bushy_plan(config, label="bushy"):
    """(R join S) join (T join U), all intermediate sizes controlled."""
    cards = {"R": 1000, "S": 2000, "T": 1500, "U": 2500}
    relations = [Relation(n, c) for n, c in cards.items()]
    sel_rs = 1.0 / cards["R"]   # |RS| = |S| = 2000
    sel_tu = 1.0 / cards["T"]   # |TU| = |U| = 2500
    sel_top = 1.0 / cards["S"]  # |RS join TU| = 2000 * 2500 / 2000 = 2500
    graph = QueryGraph(relations, [
        JoinEdge("R", "S", sel_rs),
        JoinEdge("S", "T", sel_top),
        JoinEdge("T", "U", sel_tu),
    ])
    j1 = JoinNode(BaseNode(graph.relation("R")), BaseNode(graph.relation("S")), sel_rs)
    j2 = JoinNode(BaseNode(graph.relation("T")), BaseNode(graph.relation("U")), sel_tu)
    tree = JoinNode(j1, j2, sel_top)
    return compile_plan(graph, tree, config, label=label)


# ---------------------------------------------------------------------------
# Correctness: conservation and termination
# ---------------------------------------------------------------------------

class TestConservation:
    @pytest.mark.parametrize("strategy", ["DP", "FP", "SP"])
    def test_single_join_result_cardinality(self, strategy, exact_cardinalities,
                                            counters):
        config = MachineConfig(nodes=1, processors_per_node=4)
        plan = single_join_plan(config)
        result = QueryExecutor(plan, config, strategy=strategy).run()
        # |R join S| = 2000 * 4000 * (1/2000) = 4000.
        assert result.metrics.result_tuples == 4000
        assert counters(result) == exact_cardinalities(plan)

    @pytest.mark.parametrize("strategy", ["DP", "FP"])
    def test_single_join_multi_node(self, strategy, exact_cardinalities,
                                    counters):
        config = MachineConfig(nodes=3, processors_per_node=2)
        plan = single_join_plan(config)
        result = QueryExecutor(plan, config, strategy=strategy).run()
        assert result.metrics.result_tuples == 4000
        assert result.metrics.tuples_scanned == 6000
        assert counters(result) == exact_cardinalities(plan)

    @pytest.mark.parametrize("strategy", ["DP", "FP", "SP"])
    def test_bushy_tree_cardinalities(self, strategy, exact_cardinalities,
                                      counters):
        config = MachineConfig(nodes=1, processors_per_node=4)
        plan = bushy_plan(config)
        result = QueryExecutor(plan, config, strategy=strategy).run()
        assert result.metrics.result_tuples == 2500
        assert result.metrics.tuples_built == 4500
        assert counters(result) == exact_cardinalities(plan)

    @pytest.mark.parametrize("strategy, nodes", [("DP", 2), ("FP", 2),
                                                 ("SP", 1)])
    def test_integral_output_of_a_fractional_fanout(self, strategy, nodes):
        """3 x 49 tuples at selectivity 1/147 join to exactly one result,
        though the probe's fanout times its 49 inputs is 0.999..."""
        config = MachineConfig(nodes=nodes, processors_per_node=3)
        plan = single_join_plan(config, r=3, s=49, sel=1.0 / 147)
        result = QueryExecutor(plan, config, strategy=strategy).run()
        assert result.metrics.result_tuples == 1
        assert result.metrics.tuples_probed == 49

    def test_every_base_tuple_scanned_exactly_once(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = bushy_plan(config)
        result = QueryExecutor(plan, config, strategy="DP").run()
        expected = sum(r.cardinality for r in plan.graph.relations.values())
        assert result.metrics.tuples_scanned == expected

    def test_build_counts_match_build_inputs(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = bushy_plan(config)
        result = QueryExecutor(plan, config, strategy="DP").run()
        expected = sum(op.input_cardinality for op in plan.operators.builds())
        assert result.metrics.tuples_built == expected == 4500

    def test_all_operators_terminate_with_end_times(self, run_with_end_times):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = bushy_plan(config)
        result, end_times = run_with_end_times(
            QueryExecutor(plan, config, strategy="DP"))
        assert None not in end_times.values()
        assert set(end_times) == {
            op.op_id for op in plan.operators
        }
        root_end = end_times[plan.operators.root_id]
        assert root_end == result.response_time

    def test_termination_order_respects_schedule(self, run_with_end_times,
                                                 respects_schedule):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = bushy_plan(config)
        _result, end_times = run_with_end_times(
            QueryExecutor(plan, config, strategy="DP"))
        order = sorted(end_times, key=end_times.get)
        assert respects_schedule(plan.schedule, order)


class TestDeterminism:
    def test_same_seed_same_everything(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = bushy_plan(config)
        params = ExecutionParams(seed=7,
                                 skew=SkewSpec.uniform_redistribution(0.5))
        a = QueryExecutor(plan, config, strategy="DP", params=params).run()
        b = QueryExecutor(plan, config, strategy="DP", params=params).run()
        assert a.response_time == b.response_time
        assert a.metrics.result_tuples == b.metrics.result_tuples
        assert a.metrics.messages_sent == b.metrics.messages_sent
        assert a.metrics.steal_rounds == b.metrics.steal_rounds


# ---------------------------------------------------------------------------
# Strategy relationships (the paper's qualitative results)
# ---------------------------------------------------------------------------

class TestStrategyRelationships:
    def test_sp_requires_single_node(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = single_join_plan(config)
        with pytest.raises(StrategyError):
            QueryExecutor(plan, config, strategy="SP").run()

    def test_unknown_strategy_rejected(self):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = single_join_plan(config)
        with pytest.raises(StrategyError):
            QueryExecutor(plan, config, strategy="XX").run()

    def test_sp_at_most_dp_at_most_fp_shared_memory(self):
        """Figure 6's ordering: SP <= DP <= FP (no skew, one node)."""
        config = MachineConfig(nodes=1, processors_per_node=8)
        plan = bushy_plan(config)
        times = {
            s: QueryExecutor(plan, config, strategy=s).run().response_time
            for s in ("SP", "DP", "FP")
        }
        assert times["SP"] <= times["DP"] * 1.02  # SP within/below DP
        assert times["DP"] <= times["FP"]

    def test_no_stealing_on_single_node(self):
        config = MachineConfig(nodes=1, processors_per_node=4)
        plan = bushy_plan(config)
        result = QueryExecutor(plan, config, strategy="DP").run()
        assert result.metrics.steal_rounds == 0
        assert result.metrics.loadbalance_bytes == 0

    def test_no_stealing_without_skew_observed(self):
        """Section 5.3: 'Without skew ... global load balancing is almost
        never used.'"""
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = bushy_plan(config)
        result = QueryExecutor(plan, config, strategy="DP").run()
        # A handful of end-of-operator steals are tolerable; traffic must
        # be negligible next to the pipeline traffic.
        assert result.metrics.loadbalance_bytes <= 0.1 * max(
            1, result.metrics.pipeline_bytes
        )

    def test_global_lb_can_be_disabled(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = bushy_plan(config)
        params = ExecutionParams(enable_global_lb=False,
                                 skew=SkewSpec.uniform_redistribution(0.8))
        result = QueryExecutor(plan, config, strategy="DP", params=params).run()
        assert result.metrics.steal_rounds == 0
        assert result.metrics.result_tuples > 0

    def test_dp_beats_fp_under_skew_hierarchical(self):
        """Figure 10's direction: DP < FP with skew on a multi-node machine."""
        config = MachineConfig(nodes=2, processors_per_node=4)
        plan = bushy_plan(config)
        params = ExecutionParams(skew=SkewSpec.uniform_redistribution(0.6))
        dp = QueryExecutor(plan, config, strategy="DP", params=params).run()
        fp = QueryExecutor(plan, config, strategy="FP", params=params).run()
        assert dp.response_time < fp.response_time

    def test_dp_idle_lower_than_fp(self):
        """Section 5.3: 'processor idle time with DP is almost null whereas
        it is quite significant with FP'."""
        config = MachineConfig(nodes=2, processors_per_node=4)
        plan = bushy_plan(config)
        params = ExecutionParams(skew=SkewSpec.uniform_redistribution(0.6))
        dp = QueryExecutor(plan, config, strategy="DP", params=params).run()
        fp = QueryExecutor(plan, config, strategy="FP", params=params).run()
        assert dp.metrics.idle_fraction() < fp.metrics.idle_fraction()


# ---------------------------------------------------------------------------
# Scenarios from the paper
# ---------------------------------------------------------------------------

class TestScenarios:
    def test_two_node_example_runs(self):
        plan, config = two_node_join_scenario()
        result = QueryExecutor(plan, config, strategy="DP").run()
        # |R join S| = |S| by construction.
        assert result.metrics.result_tuples == pytest.approx(8000, rel=0.01)

    def test_two_node_example_homes(self):
        plan, config = two_node_join_scenario()
        scans = {op.relation.name: op for op in plan.operators.scans()}
        assert plan.homes[scans["R"].op_id] == (0,)
        assert plan.homes[scans["S"].op_id] == (1,)
        for probe in plan.operators.probes():
            assert plan.homes[probe.op_id] == (1,)

    def test_two_node_example_ships_r_to_node_b(self):
        plan, config = two_node_join_scenario()
        result = QueryExecutor(plan, config, strategy="DP").run()
        # All R tuples cross the network into the build at node B.
        assert result.metrics.pipeline_bytes >= 4000 * 100

    def test_pipeline_chain_shape(self):
        plan, config = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                               base_tuples=500)
        longest = max(plan.operators.chains, key=len)
        assert len(longest) == 5  # scan + 4 probes

    def test_pipeline_chain_executes(self):
        plan, config = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                               base_tuples=500)
        result = QueryExecutor(plan, config, strategy="DP").run()
        assert result.metrics.result_tuples == pytest.approx(500, rel=0.05)


# ---------------------------------------------------------------------------
# Skew behaviour (Figure 9's direction)
# ---------------------------------------------------------------------------

class TestSkewResilience:
    def test_dp_degrades_gently_under_skew(self):
        config = MachineConfig(nodes=1, processors_per_node=8)
        plan = bushy_plan(config)
        base = QueryExecutor(plan, config, strategy="DP").run().response_time
        skewed = QueryExecutor(
            plan, config, strategy="DP",
            params=ExecutionParams(skew=SkewSpec.uniform_redistribution(0.8)),
        ).run().response_time
        # Figure 9: degradation stays small (we allow a loose 40% here; the
        # experiment suite measures the real curve).
        assert skewed <= base * 1.4

    def test_skew_changes_nothing_semantically(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = bushy_plan(config)
        plain = QueryExecutor(plan, config, strategy="DP").run()
        skewed = QueryExecutor(
            plan, config, strategy="DP",
            params=ExecutionParams(skew=SkewSpec.uniform_redistribution(1.0)),
        ).run()
        assert skewed.metrics.result_tuples == pytest.approx(
            plain.metrics.result_tuples, rel=0.02
        )
