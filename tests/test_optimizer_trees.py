"""Tests for join trees, the cost model, and the bushy search."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Relation
from repro.optimizer import (
    BaseNode,
    BushySearch,
    CardinalityEstimator,
    CostModel,
    CostParams,
    JoinNode,
    best_bushy_trees,
    distort_cardinalities,
    is_left_deep,
    is_right_deep,
    is_zigzag,
    joins,
    leaves,
    tree_signature,
    validate_tree,
)
from repro.query import JoinEdge, QueryGenerator, QueryGeneratorConfig, QueryGraph
from repro.sim import RandomStreams


def chain_graph(cards=(100, 200, 300, 400)):
    """R0 - R1 - R2 - R3 chain with unit-result selectivities."""
    relations = [Relation(f"R{i}", c) for i, c in enumerate(cards)]
    edges = []
    for i in range(len(cards) - 1):
        a, b = relations[i], relations[i + 1]
        sel = max(a.cardinality, b.cardinality) / (a.cardinality * b.cardinality)
        edges.append(JoinEdge(a.name, b.name, sel))
    return QueryGraph(relations, edges)


def leaf(graph, name):
    return BaseNode(graph.relation(name))


# ---------------------------------------------------------------------------
# Join tree structure
# ---------------------------------------------------------------------------

class TestJoinTree:
    def test_leaves_and_joins_traversal(self):
        graph = chain_graph()
        tree = JoinNode(
            JoinNode(leaf(graph, "R0"), leaf(graph, "R1"),
                     graph.edge_between("R0", "R1").selectivity),
            JoinNode(leaf(graph, "R2"), leaf(graph, "R3"),
                     graph.edge_between("R2", "R3").selectivity),
            graph.edge_between("R1", "R2").selectivity,
        )
        assert [leaf_node.relation.name
                for leaf_node in leaves(tree)] == ["R0", "R1", "R2", "R3"]
        assert len(list(joins(tree))) == 3
        assert tree.relations == frozenset(["R0", "R1", "R2", "R3"])

    def test_overlapping_children_rejected(self):
        graph = chain_graph()
        with pytest.raises(ValueError):
            JoinNode(leaf(graph, "R0"), leaf(graph, "R0"), 0.1)

    def test_shape_predicates(self):
        graph = chain_graph()
        sel01 = graph.edge_between("R0", "R1").selectivity
        sel12 = graph.edge_between("R1", "R2").selectivity
        sel23 = graph.edge_between("R2", "R3").selectivity
        # Left-deep: probe is always a base relation.
        left_deep = JoinNode(
            JoinNode(JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel01),
                     leaf(graph, "R2"), sel12),
            leaf(graph, "R3"), sel23,
        )
        assert is_left_deep(left_deep)
        assert is_zigzag(left_deep)
        assert not is_right_deep(left_deep)
        # Right-deep: build is always a base relation.
        right_deep = JoinNode(
            leaf(graph, "R0"),
            JoinNode(leaf(graph, "R1"),
                     JoinNode(leaf(graph, "R2"), leaf(graph, "R3"), sel23),
                     sel12),
            sel01,
        )
        assert is_right_deep(right_deep)
        assert not is_left_deep(right_deep)
        # Balanced bushy: neither.
        bushy = JoinNode(
            JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel01),
            JoinNode(leaf(graph, "R2"), leaf(graph, "R3"), sel23),
            sel12,
        )
        assert not is_left_deep(bushy)
        assert not is_right_deep(bushy)
        assert not is_zigzag(bushy)

    def test_validate_tree_accepts_valid(self):
        graph = chain_graph()
        tree = JoinNode(
            JoinNode(leaf(graph, "R0"), leaf(graph, "R1"),
                     graph.edge_between("R0", "R1").selectivity),
            JoinNode(leaf(graph, "R2"), leaf(graph, "R3"),
                     graph.edge_between("R2", "R3").selectivity),
            graph.edge_between("R1", "R2").selectivity,
        )
        validate_tree(tree, graph)  # should not raise

    def test_validate_tree_rejects_cross_product(self):
        graph = chain_graph()
        # R0 joined with R2 crosses no predicate edge.
        bad = JoinNode(leaf(graph, "R0"), leaf(graph, "R2"), 0.001)
        from repro.query import GraphError
        with pytest.raises(GraphError):
            validate_tree(
                JoinNode(bad,
                         JoinNode(leaf(graph, "R1"), leaf(graph, "R3"), 0.001),
                         0.001),
                graph,
            )

    def test_validate_tree_rejects_missing_relation(self):
        graph = chain_graph()
        partial = JoinNode(leaf(graph, "R0"), leaf(graph, "R1"),
                           graph.edge_between("R0", "R1").selectivity)
        from repro.query import GraphError
        with pytest.raises(GraphError):
            validate_tree(partial, graph)

    def test_tree_signature_distinguishes_orientation(self):
        graph = chain_graph()
        sel = graph.edge_between("R0", "R1").selectivity
        a = JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel)
        b = JoinNode(leaf(graph, "R1"), leaf(graph, "R0"), sel)
        assert tree_signature(a) != tree_signature(b)


# ---------------------------------------------------------------------------
# Cardinality estimation and distortion
# ---------------------------------------------------------------------------

class TestEstimation:
    def test_base_cardinality(self):
        graph = chain_graph()
        estimator = CardinalityEstimator(graph)
        assert estimator.cardinality(leaf(graph, "R2")) == 300

    def test_join_cardinality(self):
        graph = chain_graph()
        estimator = CardinalityEstimator(graph)
        sel = graph.edge_between("R0", "R1").selectivity
        tree = JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel)
        assert estimator.cardinality(tree) == pytest.approx(100 * 200 * sel)

    def test_distortion_within_bounds(self):
        graph = chain_graph()
        rng = random.Random(0)
        for rate in (0.05, 0.1, 0.2, 0.3):
            distorted = distort_cardinalities(graph, rate, rng)
            for name, relation in graph.relations.items():
                low = relation.cardinality * (1 - rate)
                high = relation.cardinality * (1 + rate)
                assert low - 1e-9 <= distorted[name] <= high + 1e-9

    def test_distortion_zero_is_exact(self):
        graph = chain_graph()
        distorted = distort_cardinalities(graph, 0.0, random.Random(0))
        for name, relation in graph.relations.items():
            assert distorted[name] == relation.cardinality

    def test_distortion_rate_out_of_range(self):
        with pytest.raises(ValueError):
            distort_cardinalities(chain_graph(), 1.5, random.Random(0))

    def test_estimator_with_overrides(self):
        graph = chain_graph()
        estimator = CardinalityEstimator(graph, {"R0": 1000.0, "R1": 200.0,
                                                 "R2": 300.0, "R3": 400.0})
        assert estimator.cardinality(leaf(graph, "R0")) == 1000.0


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

class TestCostModel:
    def test_operator_costs_are_linear(self):
        model = CostModel()
        assert model.scan_instructions(1000) == 1000 * 300
        assert model.build_instructions(1000) == 1000 * 200
        assert model.probe_instructions(1000, 500) == 1000 * 100 + 500 * 100

    def test_tree_cost_positive_and_monotone_in_size(self):
        small = chain_graph((100, 100, 100, 100))
        large = chain_graph((10_000, 10_000, 10_000, 10_000))
        model = CostModel()

        def any_tree(graph):
            sel01 = graph.edge_between("R0", "R1").selectivity
            sel12 = graph.edge_between("R1", "R2").selectivity
            sel23 = graph.edge_between("R2", "R3").selectivity
            return JoinNode(
                JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel01),
                JoinNode(leaf(graph, "R2"), leaf(graph, "R3"), sel23),
                sel12,
            )

        cost_small = model.join_tree_cost(any_tree(small), graph=small)
        cost_large = model.join_tree_cost(any_tree(large), graph=large)
        assert 0 < cost_small < cost_large

    def test_instructions_time(self):
        params = CostParams(mips=40e6)
        assert params.instructions_time(40e6) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Bushy search
# ---------------------------------------------------------------------------

class TestBushySearch:
    def test_returns_k_valid_trees(self):
        graph = chain_graph()
        trees = best_bushy_trees(graph, k=2)
        assert len(trees) == 2
        for tree in trees:
            validate_tree(tree, graph)

    def test_top1_is_cheapest(self):
        graph = chain_graph()
        search = BushySearch(graph, k=4)
        candidates = search.run()
        costs = [c.cost for c in candidates]
        assert costs == sorted(costs)

    def test_candidates_are_distinct(self):
        graph = chain_graph()
        candidates = BushySearch(graph, k=4).run()
        signatures = [c.signature for c in candidates]
        assert len(signatures) == len(set(signatures))

    def test_connected_subsets_of_chain(self):
        # A path of n nodes has n*(n+1)/2 connected subpaths.
        graph = chain_graph()
        subsets = BushySearch(graph).connected_subsets()
        assert len(subsets) == 4 * 5 // 2

    def test_single_join_builds_smaller_side(self):
        relations = [Relation("Small", 100), Relation("Big", 10_000)]
        edges = [JoinEdge("Small", "Big", 1e-4)]
        graph = QueryGraph(relations, edges)
        best = best_bushy_trees(graph, k=1)[0]
        assert isinstance(best, JoinNode)
        assert best.build.relations == frozenset(["Small"])

    def test_search_on_generated_query_is_feasible(self):
        generator = QueryGenerator(RandomStreams(5))
        graph = generator.generate(0)
        trees = best_bushy_trees(graph, k=2)
        assert len(trees) == 2
        for tree in trees:
            validate_tree(tree, graph)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            BushySearch(chain_graph(), k=0)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_property_search_valid_on_random_queries(self, seed):
        generator = QueryGenerator(
            RandomStreams(seed),
            QueryGeneratorConfig(relations_per_query=6, scale=0.01),
        )
        graph = generator.generate(0)
        candidates = BushySearch(graph, k=2).run()
        assert 1 <= len(candidates) <= 2
        for candidate in candidates:
            validate_tree(candidate.tree, graph)
            assert candidate.cost > 0


# ---------------------------------------------------------------------------
# The search against its reference model
# ---------------------------------------------------------------------------

def connected_by_brute_force(graph):
    """Every connected subset, by size then lexicographically."""
    return [
        frozenset(names)
        for size in range(1, len(graph) + 1)
        for names in itertools.combinations(sorted(graph.names), size)
        if graph.is_connected_subset(frozenset(names))
    ]


def reference_search(graph, k):
    """The exhaustive DP that ``BushySearch.run`` replaced, as its reference.

    Every candidate join of every connected bipartition is allocated as a
    ``JoinNode``, signed and sized by walking its whole subtree, and the
    full candidate list is sorted by ``(cost, signature)``.  Returns the
    top-``k`` ``(cost, tree)`` rows and how many candidates the
    signature-dedup set turned away.
    """
    model = CostModel()

    def signature(tree):
        if isinstance(tree, BaseNode):
            return tree.relation.name
        return f"({signature(tree.build)}>{signature(tree.probe)})"

    def card(tree):
        if isinstance(tree, BaseNode):
            return float(tree.relation.cardinality)
        return card(tree.build) * card(tree.probe) * tree.selectivity

    connected = connected_by_brute_force(graph)
    best, turned_away = {}, 0
    for subset in connected:
        if len(subset) == 1:
            tree = BaseNode(graph.relation(min(subset)))
            cost = (model.scan_instructions(card(tree))
                    + model.scan_io_seconds(card(tree)) * model.params.mips)
            best[subset] = [(cost, tree)]
            continue
        candidates, seen = [], set()
        for left in connected:
            right = subset - left
            if not (min(subset) in left and left < subset and right in best):
                continue
            (edge,) = graph.connecting_edges(left, right)
            for l_cost, l_tree in best[left]:
                for r_cost, r_tree in best[right]:
                    for build, probe, b_cost, p_cost in (
                        (l_tree, r_tree, l_cost, r_cost),
                        (r_tree, l_tree, r_cost, l_cost),
                    ):
                        tree = JoinNode(build, probe, edge.selectivity)
                        if signature(tree) in seen:
                            turned_away += 1
                            continue
                        seen.add(signature(tree))
                        out_card = card(build) * card(probe) * edge.selectivity
                        step = (model.build_instructions(card(build))
                                + model.probe_instructions(card(probe), out_card))
                        candidates.append((b_cost + p_cost + step, tree))
        candidates.sort(key=lambda row: (row[0], signature(row[1])))
        best[subset] = candidates[:k]
    return best[frozenset(graph.names)], turned_away


def shaped_graph(seed, relations, shape):
    """A generated query, optionally rewired into a chain or a star."""
    graph = QueryGenerator(
        RandomStreams(seed),
        QueryGeneratorConfig(relations_per_query=relations, scale=0.01),
    ).generate(0)
    if shape == "random":
        return graph
    names = graph.names
    ends = {
        "chain": list(zip(names, names[1:])),
        "star": [(names[0], name) for name in names[1:]],
    }[shape]
    edges = [JoinEdge(a, b, edge.selectivity)
             for (a, b), edge in zip(ends, graph.edges)]
    return QueryGraph(graph.relations.values(), edges)


def assert_matches_reference(graph, k):
    expected, _ = reference_search(graph, k)
    found = BushySearch(graph, k=k).run()
    assert len(found) == len(expected)
    for candidate, (cost, tree) in zip(found, expected):
        assert candidate.cost == cost  # bit-equal, not approx
        assert candidate.signature == tree_signature(tree)
        assert candidate.tree == tree
        validate_tree(candidate.tree, graph)


class TestSearchAgainstReference:
    @given(seed=st.integers(0, 10_000), relations=st.integers(2, 9),
           k=st.sampled_from((1, 2, 4)),
           shape=st.sampled_from(("chain", "star", "random")))
    @settings(max_examples=40, deadline=None)
    def test_property_same_rows_as_the_exhaustive_search(
            self, seed, relations, k, shape):
        assert_matches_reference(shaped_graph(seed, relations, shape), k)

    @pytest.mark.parametrize("shape", ("chain", "star", "random"))
    def test_connected_subsets_match_brute_force(self, shape):
        graph = shaped_graph(3, 8, shape)
        assert (BushySearch(graph).connected_subsets()
                == connected_by_brute_force(graph))

    @pytest.mark.parametrize("k", (1, 2, 4))
    def test_cost_ties_rank_by_signature(self, k):
        # Equal cardinalities make many candidates cost exactly the same.
        assert_matches_reference(chain_graph((100,) * 6), k)

    @pytest.mark.parametrize("shape", ("chain", "star", "random"))
    def test_dedup_set_never_rejects(self, shape):
        # Distinct splits give distinct child relation sets, so no two
        # candidates of a subset share a signature: what licenses the
        # search to keep no ``seen`` set.
        for seed in range(5):
            _, turned_away = reference_search(shaped_graph(seed, 8, shape), 4)
            assert turned_away == 0


class TestSearchDoesConstantWorkPerCandidate:
    """Operation counts, so the quadratic walk cannot return unnoticed."""

    def test_only_retained_rows_become_join_nodes(self, monkeypatch):
        from repro.optimizer import search as search_module

        built = []

        def counting_join_node(*args):
            built.append(args)
            return JoinNode(*args)

        monkeypatch.setattr(search_module, "JoinNode", counting_join_node)
        graph = QueryGenerator(RandomStreams(5)).generate(0)
        assert len(graph) == 12
        search = BushySearch(graph, k=2)
        candidates = search.run()
        assert len(candidates) == 2
        assert 0 < len(built) <= 2 * len(search.connected_subsets())

    def test_tree_signature_does_not_recurse(self, monkeypatch):
        from repro.optimizer import join_tree

        tree = best_bushy_trees(QueryGenerator(RandomStreams(5)).generate(0),
                                k=1)[0]
        assert len(list(leaves(tree))) == 12
        calls = []
        original = join_tree.tree_signature

        def counting_signature(node):
            calls.append(node)
            return original(node)

        # A recursive call would resolve the module global: this wrapper.
        monkeypatch.setattr(join_tree, "tree_signature", counting_signature)
        assert join_tree.tree_signature(tree).count(">") == 11
        assert calls == [tree]

    def test_cached_fields_stay_out_of_equality_hash_and_repr(self):
        graph = chain_graph()
        sel = graph.edge_between("R0", "R1").selectivity
        a = JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel)
        b = JoinNode(leaf(graph, "R0"), leaf(graph, "R1"), sel)
        assert a == b and hash(a) == hash(b)
        object.__setattr__(b, "signature", "something else")
        object.__setattr__(b, "relations", frozenset())
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "signature" not in repr(a) and "relations=" not in repr(a)
