"""Tests for predicate graphs and the random query generator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Relation
from repro.query import (
    GraphError,
    JoinEdge,
    QueryGenerator,
    QueryGeneratorConfig,
    QueryGraph,
    random_tree_edges,
)
from repro.sim import RandomStreams


def simple_graph():
    relations = [Relation("R", 100), Relation("S", 200), Relation("T", 300)]
    edges = [JoinEdge("R", "S", 0.01), JoinEdge("S", "T", 0.005)]
    return QueryGraph(relations, edges)


def is_connected_subset(graph, names) -> bool:
    """Whether ``names`` induces a connected subgraph of ``graph``."""
    if not names:
        return False
    start = next(iter(names))
    seen = {start}
    frontier = [start]
    while frontier:
        for neighbor in graph.neighbors(frontier.pop()):
            if neighbor in names and neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(names)


# ---------------------------------------------------------------------------
# QueryGraph validation
# ---------------------------------------------------------------------------

class TestQueryGraph:
    def test_valid_tree_accepted(self):
        graph = simple_graph()
        assert len(graph) == 3
        assert graph.names == ["R", "S", "T"]

    def test_single_relation_graph(self):
        graph = QueryGraph([Relation("R", 10)], [])
        assert len(graph) == 1

    def test_cycle_rejected(self):
        relations = [Relation(n, 10) for n in "RST"]
        edges = [JoinEdge("R", "S", 0.1), JoinEdge("S", "T", 0.1),
                 JoinEdge("T", "R", 0.1)]
        with pytest.raises(GraphError):
            QueryGraph(relations, edges)

    def test_disconnected_rejected(self):
        relations = [Relation(n, 10) for n in "RSTU"]
        edges = [JoinEdge("R", "S", 0.1), JoinEdge("T", "U", 0.1),
                 JoinEdge("R", "S", 0.2)]
        with pytest.raises(GraphError):
            QueryGraph(relations, edges)

    def test_too_few_edges_rejected(self):
        relations = [Relation(n, 10) for n in "RST"]
        with pytest.raises(GraphError):
            QueryGraph(relations, [JoinEdge("R", "S", 0.1)])

    def test_duplicate_relation_rejected(self):
        with pytest.raises(GraphError):
            QueryGraph([Relation("R", 1), Relation("R", 2)], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError):
            QueryGraph([Relation("R", 1), Relation("S", 1)],
                       [JoinEdge("R", "X", 0.1)])

    def test_self_join_edge_rejected(self):
        with pytest.raises(GraphError):
            JoinEdge("R", "R", 0.1)

    def test_nonpositive_selectivity_rejected(self):
        with pytest.raises(GraphError):
            JoinEdge("R", "S", 0.0)

    def test_neighbors_and_edges(self):
        graph = simple_graph()
        assert sorted(graph.neighbors("S")) == ["R", "T"]
        assert sorted(graph.neighbors("R")) == ["S"]
        assert len(graph._adjacency["S"]) == 2

    def test_edge_between(self):
        graph = simple_graph()
        assert graph.edge_between("R", "S").selectivity == 0.01
        assert graph.edge_between("S", "R").selectivity == 0.01
        with pytest.raises(GraphError):
            graph.edge_between("R", "T")

    def test_connecting_edges_for_tree_split(self):
        graph = simple_graph()
        edges = graph.connecting_edges(frozenset(["R"]), frozenset(["S", "T"]))
        assert len(edges) == 1
        assert edges[0].key == frozenset(("R", "S"))

    def test_is_connected_subset(self):
        graph = simple_graph()
        assert is_connected_subset(graph, frozenset(["R", "S"]))
        assert not is_connected_subset(graph, frozenset(["R", "T"]))
        assert not is_connected_subset(graph, frozenset())

    def test_edge_other(self):
        edge = JoinEdge("R", "S", 0.1)
        assert edge.other("R") == "S"
        assert edge.other("S") == "R"
        with pytest.raises(KeyError):
            edge.other("T")

    def test_total_base_bytes(self):
        graph = simple_graph()
        assert graph.total_base_bytes() == (100 + 200 + 300) * 100


# ---------------------------------------------------------------------------
# random_tree_edges
# ---------------------------------------------------------------------------

class TestRandomTree:
    @given(n=st.integers(min_value=2, max_value=30), seed=st.integers(0, 1000))
    @settings(max_examples=100)
    def test_property_generates_spanning_tree(self, n, seed):
        names = [f"R{i}" for i in range(n)]
        edges = random_tree_edges(names, random.Random(seed))
        assert len(edges) == n - 1
        # Union-find connectivity check.
        parent = {name: name for name in names}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            parent[find(a)] = find(b)
        assert len({find(name) for name in names}) == 1

    def test_shapes_vary(self):
        """Both chain-like and star-like trees should appear."""
        rng = random.Random(1)
        max_degrees = set()
        for _ in range(50):
            edges = random_tree_edges([f"R{i}" for i in range(8)], rng)
            degree = {}
            for a, b in edges:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            max_degrees.add(max(degree.values()))
        assert len(max_degrees) > 2


# ---------------------------------------------------------------------------
# QueryGenerator
# ---------------------------------------------------------------------------

class TestQueryGenerator:
    def test_generates_requested_relation_count(self):
        generator = QueryGenerator(RandomStreams(42))
        graph = generator.generate(0)
        assert len(graph) == 12
        assert len(graph.edges) == 11

    def test_deterministic_per_seed_and_index(self):
        g1 = QueryGenerator(RandomStreams(42)).generate(3)
        g2 = QueryGenerator(RandomStreams(42)).generate(3)
        assert [r.cardinality for r in g1.relations.values()] == [
            r.cardinality for r in g2.relations.values()
        ]
        assert [e.selectivity for e in g1.edges] == [e.selectivity for e in g2.edges]

    def test_different_indices_differ(self):
        generator = QueryGenerator(RandomStreams(42))
        g1, g2 = generator.generate(0), generator.generate(1)
        assert [r.cardinality for r in g1.relations.values()] != [
            r.cardinality for r in g2.relations.values()
        ]

    def test_cardinalities_in_declared_classes(self):
        generator = QueryGenerator(RandomStreams(7))
        graph = generator.generate(0)
        ranges = [(10_000, 20_000), (100_000, 200_000), (1_000_000, 2_000_000)]
        for relation in graph.relations.values():
            assert any(lo <= relation.cardinality <= hi for lo, hi in ranges)

    def test_shekita_selectivity_range(self):
        """sel(R,S) in [0.5*max/(|R||S|), 1.5*max/(|R||S|)] (Section 5.1.2)."""
        generator = QueryGenerator(RandomStreams(7))
        for index in range(5):
            graph = generator.generate(index)
            for edge in graph.edges:
                r = graph.relation(edge.left).cardinality
                s = graph.relation(edge.right).cardinality
                base = max(r, s) / (r * s)
                assert 0.5 * base <= edge.selectivity <= 1.5 * base

    def test_join_results_comparable_to_larger_input(self):
        """The selectivity calibration keeps |R join S| in [0.5, 1.5]*max."""
        generator = QueryGenerator(RandomStreams(7))
        graph = generator.generate(0)
        for edge in graph.edges:
            r = graph.relation(edge.left).cardinality
            s = graph.relation(edge.right).cardinality
            result = r * s * edge.selectivity
            assert 0.5 * max(r, s) <= result <= 1.5 * max(r, s)

    def test_scale_shrinks_cardinalities(self):
        config = QueryGeneratorConfig(scale=0.01)
        generator = QueryGenerator(RandomStreams(7), config)
        graph = generator.generate(0)
        for relation in graph.relations.values():
            assert relation.cardinality <= 20_000

    def test_generate_many(self):
        generator = QueryGenerator(RandomStreams(1))
        graphs = [generator.generate(index) for index in range(20)]
        assert len(graphs) == 20
        names = {tuple(g.names) for g in graphs}
        assert len(names) == 20  # distinct relation name spaces

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            QueryGeneratorConfig(relations_per_query=1)
        with pytest.raises(ValueError):
            QueryGeneratorConfig(scale=0)
        with pytest.raises(ValueError):
            QueryGeneratorConfig(selectivity_low=0)
        with pytest.raises(ValueError):
            QueryGeneratorConfig(size_classes=())
