"""Tests for the join-tree shape constructors (Section 2.2's taxonomy)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Relation
from repro.engine import QueryExecutor
from repro.optimizer import (
    CardinalityEstimator,
    connected_orders,
    is_left_deep,
    is_right_deep,
    is_zigzag,
    left_deep_tree,
    macro_expand,
    right_deep_tree,
    segmented_right_deep_tree,
    validate_tree,
    zigzag_tree,
)
from repro.query import GraphError, JoinEdge, QueryGraph


def chain_graph(n=5, card=1000):
    relations = [Relation(f"R{i}", card) for i in range(n)]
    edges = [JoinEdge(f"R{i}", f"R{i + 1}", 1.0 / card) for i in range(n - 1)]
    return QueryGraph(relations, edges)


ORDER = ["R0", "R1", "R2", "R3", "R4"]


class TestShapeConstructors:
    def test_left_deep(self):
        graph = chain_graph()
        tree = left_deep_tree(graph, ORDER)
        validate_tree(tree, graph)
        assert is_left_deep(tree)
        assert not is_right_deep(tree)

    def test_right_deep(self):
        graph = chain_graph()
        tree = right_deep_tree(graph, ORDER)
        validate_tree(tree, graph)
        assert is_right_deep(tree)
        assert not is_left_deep(tree)

    def test_right_deep_is_one_pipeline_chain(self):
        """Right-deep = one maximal probe chain driven by the last relation."""
        graph = chain_graph()
        tree = right_deep_tree(graph, ORDER)
        ops = macro_expand(tree, CardinalityEstimator(graph))
        longest = max(ops.chains, key=len)
        # scan + (n-1) probes.
        assert len(longest) == 5

    def test_left_deep_has_no_long_chains(self):
        graph = chain_graph()
        tree = left_deep_tree(graph, ORDER)
        ops = macro_expand(tree, CardinalityEstimator(graph))
        # Every chain is at most scan->probe->build.
        assert max(len(c) for c in ops.chains) <= 3

    def test_zigzag_default_alternates(self):
        graph = chain_graph()
        tree = zigzag_tree(graph, ORDER)
        validate_tree(tree, graph)
        assert is_zigzag(tree)

    def test_zigzag_custom_pattern(self):
        graph = chain_graph()
        all_newcomer = zigzag_tree(graph, ORDER, pattern=[True] * 4)
        assert is_right_deep(all_newcomer)
        all_composite = zigzag_tree(graph, ORDER, pattern=[False] * 4)
        assert is_left_deep(all_composite)

    def test_zigzag_pattern_length_checked(self):
        graph = chain_graph()
        with pytest.raises(ValueError):
            zigzag_tree(graph, ORDER, pattern=[True])

    def test_segmented_right_deep(self):
        graph = chain_graph()
        tree = segmented_right_deep_tree(graph, ORDER, segment_size=2)
        validate_tree(tree, graph)
        ops = macro_expand(tree, CardinalityEstimator(graph))
        # Segmenting bounds chain length below the full right-deep chain.
        full = macro_expand(right_deep_tree(graph, ORDER),
                            CardinalityEstimator(graph))
        assert max(len(c) for c in ops.chains) < max(len(c) for c in full.chains)

    def test_segment_size_validated(self):
        with pytest.raises(ValueError):
            segmented_right_deep_tree(chain_graph(), ORDER, segment_size=1)

    def test_cross_product_order_rejected(self):
        graph = chain_graph()
        with pytest.raises(GraphError):
            left_deep_tree(graph, ["R0", "R2", "R1", "R3", "R4"])

    def test_incomplete_order_rejected(self):
        graph = chain_graph()
        with pytest.raises(GraphError):
            left_deep_tree(graph, ["R0", "R1"])


class TestConnectedOrders:
    def test_chain_orders_counted(self):
        # A path of n nodes has 2^(n-1) connected enumerations.
        graph = chain_graph(4)
        orders = connected_orders(graph)
        assert len(orders) == 8

    def test_every_order_is_valid(self):
        graph = chain_graph(5)
        for order in connected_orders(graph, limit=50):
            tree = right_deep_tree(graph, order)
            validate_tree(tree, graph)

    def test_limit_respected(self):
        graph = chain_graph(6)
        assert len(connected_orders(graph, limit=5)) == 5


class TestShapesExecute:
    """All shapes must run through the engine with identical results."""

    @pytest.mark.parametrize("builder", [
        left_deep_tree,
        right_deep_tree,
        zigzag_tree,
    ])
    def test_shape_executes_and_conserves(self, builder):
        from repro.optimizer import compile_plan
        from repro.sim import MachineConfig
        graph = chain_graph(4, card=2000)
        order = ["R0", "R1", "R2", "R3"]
        tree = builder(graph, order)
        config = MachineConfig(nodes=1, processors_per_node=4)
        plan = compile_plan(graph, tree, config, label=builder.__name__)
        result = QueryExecutor(plan, config, strategy="DP").run()
        # Final cardinality is shape-independent: card * (sel*card)^(n-1).
        assert result.metrics.result_tuples == 2000

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_property_shapes_agree_on_cardinality(self, seed):
        import random
        rng = random.Random(seed)
        graph = chain_graph(4, card=rng.randint(500, 3000))
        order = ["R0", "R1", "R2", "R3"]
        estimator = CardinalityEstimator(graph)
        cards = {
            builder.__name__: estimator.cardinality(builder(graph, order))
            for builder in (left_deep_tree, right_deep_tree, zigzag_tree)
        }
        values = list(cards.values())
        assert all(v == pytest.approx(values[0]) for v in values)
