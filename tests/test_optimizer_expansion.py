"""Tests for macro-expansion, scheduling, homes, and plan compilation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Relation
from repro.optimizer import (
    BaseNode,
    CardinalityEstimator,
    HomeError,
    JoinNode,
    OpKind,
    ParallelExecutionPlan,
    Schedule,
    ScheduleError,
    all_nodes_homes,
    best_bushy_trees,
    build_schedule,
    chain_total_order,
    compile_plan,
    derived_homes,
    macro_expand,
    validate_homes,
)
from repro.query import JoinEdge, QueryGenerator, QueryGeneratorConfig, QueryGraph
from repro.sim import MachineConfig, RandomStreams


def four_relation_bushy():
    """The paper's Figure 2 shape: (R join S) join (T join U)."""
    relations = [Relation("R", 1000), Relation("S", 2000),
                 Relation("T", 1500), Relation("U", 2500)]
    edges = [
        JoinEdge("R", "S", 1e-3),
        JoinEdge("S", "T", 1e-3),
        JoinEdge("T", "U", 1e-3),
    ]
    graph = QueryGraph(relations, edges)
    j1 = JoinNode(BaseNode(graph.relation("R")), BaseNode(graph.relation("S")), 1e-3)
    j2 = JoinNode(BaseNode(graph.relation("T")), BaseNode(graph.relation("U")), 1e-3)
    tree = JoinNode(j1, j2, 1e-3)
    return graph, tree


# ---------------------------------------------------------------------------
# Macro-expansion
# ---------------------------------------------------------------------------

class TestMacroExpansion:
    def test_operator_counts(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        # 4 relations: 4 scans; 3 joins: 3 builds + 3 probes.
        assert len(ops.scans()) == 4
        assert len(ops.builds()) == 3
        assert len(ops.probes()) == 3
        assert len(ops) == 10

    def test_labels_follow_paper_convention(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        labels = {op.label for op in ops}
        assert {"Scan1", "Scan2", "Scan3", "Scan4",
                "Build1", "Probe1", "Build2", "Probe2",
                "Build3", "Probe3"} == labels

    def test_build_probe_pairing(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        for probe in ops.probes():
            build = ops.op(ops.build_of(probe.op_id))
            assert build.kind is OpKind.BUILD
            assert build.join_id == probe.join_id
            assert ops.probe_of(build.op_id) == probe.op_id

    def test_root_is_final_probe(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        root = ops.op(ops.root_id)
        assert root.kind is OpKind.PROBE
        assert root.consumer_id is None

    def test_cardinality_propagation(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        scan_r = next(o for o in ops.scans() if o.relation.name == "R")
        assert scan_r.output_cardinality == 1000
        probe1 = next(o for o in ops.probes() if o.label == "Probe1")
        # |R join S| = 1000 * 2000 * 1e-3 = 2000
        assert probe1.output_cardinality == pytest.approx(2000)

    def test_scan_selectivity_reduces_output(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph), scan_selectivity=0.5)
        scan_r = next(o for o in ops.scans() if o.relation.name == "R")
        assert scan_r.output_cardinality == 500

    def test_invalid_scan_selectivity(self):
        graph, tree = four_relation_bushy()
        with pytest.raises(ValueError):
            macro_expand(tree, CardinalityEstimator(graph), scan_selectivity=0)

    def test_pipeline_chains_are_paths(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        # Chains: {Scan1,Build1}, {Scan2,Probe1,Build2}, {Scan3,Build3},
        # {Scan4,Probe3,Probe2} — as in the paper's Figure 2.
        chain_labels = sorted(
            tuple(ops.op(i).label for i in chain.op_ids) for chain in ops.chains
        )
        assert chain_labels == sorted([
            ("Scan1", "Build1"),
            ("Scan2", "Probe1", "Build2"),
            ("Scan3", "Build3"),
            ("Scan4", "Probe3", "Probe2"),
        ])

    def test_every_chain_starts_with_scan(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        for chain in ops.chains:
            assert ops.op(chain.source_id).kind is OpKind.SCAN

    def test_chain_of(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        for chain in ops.chains:
            for op_id in chain.op_ids:
                assert ops.chains[ops._chain_of[op_id]].chain_id == chain.chain_id

    def test_fanout(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        probe1 = next(o for o in ops.probes() if o.label == "Probe1")
        # Each S tuple matches sel * |R| = 1e-3 * 1000 = 1 R tuple.
        assert probe1.fanout == pytest.approx(1.0)
        build1 = next(o for o in ops.builds() if o.label == "Build1")
        assert build1.fanout == 0.0


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

class TestScheduling:
    def _ops(self):
        graph, tree = four_relation_bushy()
        return macro_expand(tree, CardinalityEstimator(graph))

    def _by_label(self, ops):
        return {op.label: op.op_id for op in ops}

    def test_hash_constraints_always_present(self):
        ops = self._ops()
        ids = self._by_label(ops)
        schedule = build_schedule(ops, heuristic1=False, heuristic2=False)
        for join in (1, 2, 3):
            assert ids[f"Build{join}"] in schedule.predecessors_of(ids[f"Probe{join}"])

    def test_heuristic1_blocks_chain_sources(self):
        """Figure 2: Build1<Scan2, Build2<Scan4, Build3<Scan4."""
        ops = self._ops()
        ids = self._by_label(ops)
        schedule = build_schedule(ops, heuristic1=True, heuristic2=False)
        assert ids["Build1"] in schedule.predecessors_of(ids["Scan2"])
        assert ids["Build2"] in schedule.predecessors_of(ids["Scan4"])
        assert ids["Build3"] in schedule.predecessors_of(ids["Scan4"])

    def test_heuristic2_sequences_chains(self):
        ops = self._ops()
        schedule = build_schedule(ops, heuristic1=True, heuristic2=True)
        order = chain_total_order(ops)
        # Consecutive chains: terminal of earlier precedes source of later.
        for earlier, later in zip(order, order[1:]):
            terminal = ops.chains[earlier].terminal_id
            source = ops.chains[later].source_id
            assert terminal in schedule.predecessors_of(source)

    def test_schedule_is_acyclic(self, respects_schedule):
        ops = self._ops()
        schedule = build_schedule(ops)
        order = schedule.topological_order()
        assert len(order) == len(ops)
        assert respects_schedule(schedule, order)

    def test_initially_unblocked_nonempty(self):
        ops = self._ops()
        schedule = build_schedule(ops)
        unblocked = sorted(op_id for op_id, preds
                           in schedule.predecessors.items() if not preds)
        assert unblocked
        for op_id in unblocked:
            assert not schedule.predecessors_of(op_id)

    def test_cycle_detection(self):
        bad = Schedule({0: frozenset([1]), 1: frozenset([0])})
        with pytest.raises(ScheduleError):
            bad.topological_order()

    def test_is_consistent_linearization_rejects_violations(
            self, respects_schedule):
        schedule = Schedule({0: frozenset(), 1: frozenset([0])})
        assert respects_schedule(schedule, [0, 1])
        assert not respects_schedule(schedule, [1, 0])
        assert not respects_schedule(schedule, [0])

    def test_chain_total_order_respects_dependencies(self):
        ops = self._ops()
        order = chain_total_order(ops)
        deps = ops.chain_dependencies()
        position = {cid: i for i, cid in enumerate(order)}
        for cid, dep_set in deps.items():
            for dep in dep_set:
                assert position[dep] < position[cid]


# ---------------------------------------------------------------------------
# Homes
# ---------------------------------------------------------------------------

class TestHomes:
    def test_all_nodes_homes(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        homes = all_nodes_homes(ops, [0, 1, 2])
        assert all(home == (0, 1, 2) for home in homes.values())

    def test_all_nodes_requires_nodes(self):
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        with pytest.raises(HomeError):
            all_nodes_homes(ops, [])

    def test_derived_homes_respect_scan_constraint(self):
        from repro.catalog import place_relation
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        placements = {
            "R": place_relation(graph.relation("R"), [0], 2),
            "S": place_relation(graph.relation("S"), [1], 2),
            "T": place_relation(graph.relation("T"), [1], 2),
            "U": place_relation(graph.relation("U"), [2], 2),
        }
        homes = derived_homes(ops, placements, default_nodes=[1, 2])
        validate_homes(ops, homes, placements)
        scan_r = next(o for o in ops.scans() if o.relation.name == "R")
        assert homes[scan_r.op_id] == (0,)

    def test_validate_homes_rejects_mismatched_scan(self):
        from repro.catalog import place_relation
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        placements = {
            name: place_relation(graph.relation(name), [0], 2)
            for name in ("R", "S", "T", "U")
        }
        homes = all_nodes_homes(ops, [0, 1])  # scans claim (0,1), placement is (0,)
        with pytest.raises(HomeError):
            validate_homes(ops, homes, placements)

    def test_validate_homes_rejects_split_join(self):
        from repro.catalog import place_relation
        graph, tree = four_relation_bushy()
        ops = macro_expand(tree, CardinalityEstimator(graph))
        placements = {
            name: place_relation(graph.relation(name), [0, 1], 2)
            for name in ("R", "S", "T", "U")
        }
        homes = all_nodes_homes(ops, [0, 1])
        probe = ops.probes()[0]
        homes[probe.op_id] = (0,)  # break constraint (ii)
        with pytest.raises(HomeError):
            validate_homes(ops, homes, placements)


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------

class TestCompilePlan:
    def test_compile_simple_plan(self):
        graph, tree = four_relation_bushy()
        config = MachineConfig(nodes=2, processors_per_node=4)
        plan = compile_plan(graph, tree, config, label="test")
        assert plan.label == "test"
        assert plan.node_set == (0, 1)
        assert set(plan.placements) == {"R", "S", "T", "U"}
        assert len(plan.estimated_work) == len(plan.operators)

    def test_plan_placements_cover_cardinalities(self):
        graph, tree = four_relation_bushy()
        config = MachineConfig(nodes=3, processors_per_node=2)
        plan = compile_plan(graph, tree, config)
        for name, placement in plan.placements.items():
            assert sum(placement.tuples_per_node) == graph.relation(name).cardinality

    def test_distorted_plan_changes_estimates_not_truth(self):
        import random
        graph, tree = four_relation_bushy()
        config = MachineConfig(nodes=1, processors_per_node=4)
        plan = compile_plan(graph, tree, config)
        distorted = plan.distorted(0.3, random.Random(5))
        assert distorted.operators is plan.operators
        assert distorted.placements is plan.placements
        assert distorted.estimated_work != plan.estimated_work

    def test_distortion_zero_keeps_estimates(self):
        import random
        graph, tree = four_relation_bushy()
        config = MachineConfig(nodes=1, processors_per_node=4)
        plan = compile_plan(graph, tree, config)
        undistorted = plan.distorted(0.0, random.Random(5))
        for op_id, work in plan.estimated_work.items():
            assert undistorted.estimated_work[op_id] == pytest.approx(work)

    def test_plan_requires_estimates_for_all_ops(self):
        graph, tree = four_relation_bushy()
        config = MachineConfig(nodes=1, processors_per_node=4)
        plan = compile_plan(graph, tree, config)
        with pytest.raises(ValueError):
            ParallelExecutionPlan(
                graph=plan.graph,
                join_tree=plan.join_tree,
                operators=plan.operators,
                schedule=plan.schedule,
                homes=plan.homes,
                placements=plan.placements,
                estimated_work={},
            )

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_property_full_pipeline_from_random_query(self, seed):
        """query -> search -> expand -> schedule -> plan, end to end."""
        generator = QueryGenerator(
            RandomStreams(seed),
            QueryGeneratorConfig(relations_per_query=5, scale=0.01),
        )
        graph = generator.generate(0)
        tree = best_bushy_trees(graph, k=1)[0]
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = compile_plan(graph, tree, config)
        # Schedule covers all operators and is acyclic.
        assert len(plan.schedule.topological_order()) == len(plan.operators)
        # Chains partition the operators.
        covered = [op_id for chain in plan.operators.chains for op_id in chain.op_ids]
        assert sorted(covered) == sorted(op.op_id for op in plan.operators)
