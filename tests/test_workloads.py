"""Tests for the workload builder and the canned scenarios."""

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer import CostModel, is_right_deep, validate_tree
from repro.optimizer.cost import ESTIMATE_MIPS
from repro.optimizer.search import BushySearch
from repro.query import QueryGenerator, QueryGeneratorConfig
from repro.sim import MachineConfig, RandomStreams
from repro.workloads import (
    WorkloadConfig,
    build_workload,
    pipeline_chain_scenario,
    two_node_join_scenario,
)
from repro.workloads import plans
from repro.workloads.plans import _intermediate_bytes, build_query_population


SMALL = WorkloadConfig(queries=3)
PAPER = WorkloadConfig()
LEDGER = WorkloadConfig(queries=8, scale=0.01, seed=1996)


class TestWorkloadBuilder:
    def test_plans_per_query(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        workload = build_workload(config, SMALL)
        assert len(workload.plans) == 3 * 2
        assert len(workload.accepted_queries) == 3

    def test_sequential_band_respected(self):
        cost_model = CostModel()
        population = build_query_population(SMALL, cost_model)
        low, high = SMALL.effective_band
        for graph, trees, _ in population.entries:
            for tree in trees:
                validate_tree(tree, graph)
            candidates = BushySearch(graph, cost_model=cost_model, k=2).run()
            for candidate in candidates:
                seq = candidate.cost / ESTIMATE_MIPS
                assert low <= seq <= high

    def test_intermediate_ratio_respected(self):
        population = build_query_population(SMALL)
        for graph, trees, _ in population.entries:
            for tree in trees:
                ratio = _intermediate_bytes(graph, tree) / graph.total_base_bytes()
                assert ratio <= SMALL.max_intermediate_ratio

    def test_deterministic_across_calls(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        a = build_workload(config, SMALL)
        b = build_workload(config, SMALL)
        assert [p.label for p in a.plans] == [p.label for p in b.plans]

    def test_population_cached_across_machines(self):
        pop1 = build_query_population(SMALL)
        pop2 = build_query_population(SMALL)
        assert pop1 is pop2
        # Different machines share the query population but get their own
        # placements.
        c1 = MachineConfig(nodes=1, processors_per_node=4)
        c2 = MachineConfig(nodes=4, processors_per_node=2)
        w1 = build_workload(c1, SMALL)
        w2 = build_workload(c2, SMALL)
        assert w1.accepted_queries == w2.accepted_queries
        assert w1.plans[0].node_set == (0,)
        assert w2.plans[0].node_set == (0, 1, 2, 3)

    def test_population_cache_keyed_on_the_cost_model(self):
        from repro.optimizer.cost import CostParams
        from repro.sim.disk import DiskParams
        default = build_query_population(SMALL)
        # Ten times the build price moves every plan out of the default
        # band: the default model's queries must not come back.
        pricey = CostModel(CostParams(build_instructions_per_tuple=2000))
        wide = WorkloadConfig(queries=3, band=(450.0, 9000.0))
        assert (build_query_population(wide, pricey).entries
                != build_query_population(wide).entries)
        slow_disk = CostModel(disk=DiskParams(transfer_rate=1024 * 1024))
        assert (build_query_population(wide, slow_disk).entries
                != build_query_population(wide).entries)
        big_tuples = CostModel(tuple_size=1000)
        assert (build_query_population(wide, big_tuples).entries
                != build_query_population(wide).entries)
        # An equal-valued model is the same key.
        assert build_query_population(SMALL, CostModel()) is default

    @pytest.mark.parametrize("config, golden, rejected, accepted", [
        # the paper's 20-query x 2-plan population
        (PAPER,
         "778ede0c14f6d557067a12847a63ab5907f186601d647e950d575c14c7cedf25",
         34, [1, 4, 9, 13, 18, 23, 25, 30, 31, 33, 34, 36, 37, 39, 40, 44,
              45, 51, 52, 53]),
        # the ledger's (plans.workload_queries=8, scale=0.01, seed=1996)
        (LEDGER,
         "ee145eac6b460c5fb54c539fdc87e3ff8d258bb95c6c40d6477295af252f8316",
         23, [1, 4, 9, 13, 18, 23, 25, 30]),
    ])
    def test_golden_population_digest(self, config, golden, rejected,
                                      accepted):
        """Which queries are accepted, their trees and their exact costs.

        The digests were computed with the exhaustive search, and the
        counts by searching every candidate; a faster search or a
        pre-search rejection must reproduce them byte for byte.
        """
        from repro.optimizer import tree_signature
        sha = hashlib.sha256()
        population = build_query_population(config)
        for graph, trees, query_index in population.entries:
            candidates = BushySearch(graph, k=config.plans_per_query).run()
            assert tuple(c.tree for c in candidates) == trees
            for rank, c in enumerate(candidates):
                sha.update(repr((query_index, rank, tree_signature(c.tree),
                                 repr(c.cost))).encode())
        assert sha.hexdigest() == golden
        assert population.rejected == rejected
        assert [index for _, _, index in population.entries] == accepted

    def test_compiled_plan_pickles(self):
        # The ``processes`` sweep option ships compiled plans to workers.
        from repro.optimizer import tree_signature
        plan = build_workload(MachineConfig(nodes=2, processors_per_node=2),
                              SMALL).plans[0]
        shipped = pickle.loads(pickle.dumps(plan))
        assert shipped.join_tree == plan.join_tree
        assert (tree_signature(shipped.join_tree)
                == tree_signature(plan.join_tree))
        assert shipped.join_tree.relations == plan.join_tree.relations
        assert shipped.label == plan.label

    def test_the_two_plans_differ(self):
        from repro.optimizer import tree_signature
        config = MachineConfig(nodes=1, processors_per_node=2)
        workload = build_workload(config, SMALL)
        for i in range(0, len(workload.plans), 2):
            a, b = workload.plans[i], workload.plans[i + 1]
            assert tree_signature(a.join_tree) != tree_signature(b.join_tree)

    def test_invalid_config_detected(self):
        with pytest.raises(RuntimeError):
            build_workload(
                MachineConfig(nodes=1, processors_per_node=2),
                # An impossible band: nothing can be accepted.
                WorkloadConfig(queries=1, band=(1e12, 2e12),
                               max_candidates=20),
            )


class TestRejectBeforeSearch:
    """The pre-search bound turns away only what the search would."""

    @given(seed=st.integers(0, 10_000), relations=st.integers(2, 12),
           scale=st.floats(0.001, 0.1), k=st.sampled_from((1, 2, 4)),
           floor=st.floats(0.25, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_property_bound_rejects_only_what_the_search_rejects(
            self, seed, relations, scale, k, floor):
        graph = QueryGenerator(
            RandomStreams(seed),
            QueryGeneratorConfig(relations_per_query=relations, scale=scale),
        ).generate(0)
        cost_model = CostModel()
        found = BushySearch(graph, cost_model=cost_model, k=k).run()
        bound = plans._kth_cost_bound(graph, cost_model, k)
        if bound is None:
            assert k > relations
            return
        assert len(found) == k
        assert found[-1].cost <= bound * (1 + plans._BOUND_MARGIN)
        # A band floor below (floor < 1) or around the search's k-th cost:
        # the bound lets the first kind through to the search.
        sequential = found[-1].cost / ESTIMATE_MIPS
        low = floor * sequential
        if plans._below_band(graph, cost_model, k, low):
            assert sequential < low
        if floor < 1:
            assert not plans._below_band(graph, cost_model, k, low)

    def test_bound_decides_both_ways(self):
        graph = QueryGenerator(RandomStreams(7)).generate(0)
        cost_model = CostModel()
        (_, second) = BushySearch(graph, cost_model=cost_model, k=2).run()
        sequential = second.cost / ESTIMATE_MIPS
        assert not plans._below_band(graph, cost_model, 2, sequential)
        assert plans._below_band(graph, cost_model, 2, 1.5 * sequential)
        # two relations have two trees, not four: the bound does not decide
        pair = QueryGenerator(
            RandomStreams(7), QueryGeneratorConfig(relations_per_query=2),
        ).generate(0)
        assert plans._kth_cost_bound(pair, cost_model, 2) is not None
        assert plans._kth_cost_bound(pair, cost_model, 4) is None
        assert not plans._below_band(pair, cost_model, 4, float("inf"))

    @pytest.mark.parametrize("config, searches", [(PAPER, 20), (LEDGER, 8)])
    def test_only_accepted_candidates_are_searched(self, monkeypatch, config,
                                                   searches):
        monkeypatch.setattr(plans, "_POPULATION_CACHE", {})
        calls = []
        original = BushySearch.run

        def counting_run(search):
            calls.append(search.graph)
            return original(search)

        monkeypatch.setattr(BushySearch, "run", counting_run)
        population = build_query_population(config)
        assert len(calls) == searches == len(population.entries)


class TestScenarios:
    def test_two_node_scenario_structure(self):
        plan, config = two_node_join_scenario()
        assert config.nodes == 2
        assert len(plan.operators.scans()) == 2
        assert len(plan.operators.probes()) == 1

    def test_pipeline_chain_scenario_right_deep(self):
        plan, config = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                               base_tuples=1000)
        assert is_right_deep(plan.join_tree)

    def test_pipeline_chain_length_parameterized(self):
        plan, _ = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                          base_tuples=1000, chain_joins=6)
        longest = max(plan.operators.chains, key=len)
        assert len(longest) == 7

    def test_pipeline_chain_rejects_zero_joins(self):
        with pytest.raises(ValueError):
            pipeline_chain_scenario(chain_joins=0)

    def test_pipeline_chain_intermediates_controlled(self):
        plan, _ = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                          base_tuples=1000)
        for probe in plan.operators.probes():
            assert probe.output_cardinality == pytest.approx(1000, rel=0.01)
