"""Property and regression tests for the multi-query serving layer.

The invariants under concurrency:

* **per-query tuple conservation** — every base tuple of every concurrent
  query is scanned exactly once, and every activation created for a query
  is processed exactly once (no loss, no double execution), even while
  activations migrate between nodes through the steal protocol;
* **steal legality in situ** — every candidate the provider-side
  scheduler offers during a live multi-query run satisfies the paper's
  five conditions at decision time;
* **determinism** — a :class:`WorkloadDriver` run is a pure function of
  its seed: two identical runs produce byte-identical metrics (the
  regression guard for the shared ``(time, priority, sequence)`` event
  heap under the multi-root-process refactor);
* **admission** — the multiprogramming cap is never exceeded and the
  memory gate defers queries that do not fit;
* **latency accounting** — queueing delay + execution time == latency,
  exactly, per query.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import Relation, SkewSpec
from repro.engine import ExecutionParams, QueryExecutor
from repro.engine.scheduler import NodeScheduler
from repro.optimizer import BaseNode, JoinNode, compile_plan
from repro.optimizer.operator_tree import OpKind
from repro.query import JoinEdge, QueryGraph
from repro.serving import AdmissionPolicy, ArrivalSpec, WorkloadSpec
from repro.serving.coordinator import MultiQueryCoordinator
from repro.serving.driver import WorkloadDriver
from repro.sim import MachineConfig
from repro.workloads import pipeline_chain_scenario


def small_join_plan(config, r=600, s=1200, label="serve"):
    """R join S with |result| = |S|, small enough for many concurrent runs."""
    sel = 1.0 / r
    graph = QueryGraph(
        [Relation("R", r), Relation("S", s)], [JoinEdge("R", "S", sel)]
    )
    tree = JoinNode(BaseNode(graph.relation("R")), BaseNode(graph.relation("S")),
                    sel)
    return compile_plan(graph, tree, config, label=label)


def run_workload(plan, config, *, queries=6, strategy="DP", kind="closed",
                 mpl=4, rate=60.0, skew=0.0, seed=0):
    spec = WorkloadSpec(
        queries=queries,
        arrival=(ArrivalSpec(kind="closed", population=mpl) if kind == "closed"
                 else ArrivalSpec(kind=kind, rate=rate)),
        strategy=strategy,
        policy=AdmissionPolicy(max_multiprogramming=mpl),
        seed=seed,
    )
    params = ExecutionParams(
        skew=(SkewSpec(redistribution=skew) if skew > 0
              else SkewSpec()),
        seed=seed,
    )
    driver = WorkloadDriver(plan, config, spec, params)
    coordinator = driver.build_coordinator()
    metrics = coordinator.run()
    return coordinator, metrics


# ---------------------------------------------------------------------------
# Conservation and no-double-execution under concurrency
# ---------------------------------------------------------------------------

class TestMultiQueryConservation:
    @given(
        seed=st.integers(0, 200),
        strategy=st.sampled_from(["DP", "FP"]),
        kind=st.sampled_from(["closed", "poisson", "bursty"]),
        mpl=st.integers(min_value=1, max_value=6),
        skew=st.sampled_from([0.0, 0.5, 0.8]),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_every_query_conserves_tuples_and_activations(
            self, seed, strategy, kind, mpl, skew):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config)
        coordinator, metrics = run_workload(
            plan, config, queries=5, strategy=strategy, kind=kind,
            mpl=mpl, skew=skew, seed=seed,
        )
        assert metrics.completed == 5
        expected_scan = sum(r.cardinality for r in plan.graph.relations.values())
        for completion in metrics.completions:
            m = completion.result.metrics
            # Every base tuple scanned exactly once, per query.
            assert m.tuples_scanned == expected_scan
            # Every activation processed exactly once: the processed count
            # equals seeded triggers plus emitted data activations, even
            # when some migrated between nodes via steals.
            assert m.activations_processed == (
                m.trigger_activations + m.data_activations
            )
            # Results are correct per query (|R join S| = |S|).
            assert m.result_tuples == 1200

    def test_per_operator_outstanding_drains_to_zero(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config)
        coordinator, metrics = run_workload(plan, config, queries=4, mpl=4)
        for request in metrics.completions:
            pass  # completions hold results; contexts were checked at finish
        assert not coordinator.running and not coordinator.pending


# ---------------------------------------------------------------------------
# Steal legality, validated at decision time inside live runs
# ---------------------------------------------------------------------------

class TestStealLegalityInSitu:
    def test_all_offers_satisfy_the_five_conditions(self, monkeypatch):
        """Wrap the provider-side selection and audit every offer made
        during a skewed multi-query run against the paper's conditions."""
        original = NodeScheduler._best_candidate
        audited = {"offers": 0}

        def checked(self, requester, scope, free_memory, cached):
            candidate = original(self, requester, scope, free_memory, cached)
            if candidate is not None:
                audited["offers"] += 1
                runtime = self.context.ops[candidate.op_id]
                # (iv) probes only; (v) unblocked, unterminated.
                assert runtime.kind is OpKind.PROBE
                assert not runtime.blocked and not runtime.terminated
                # Home membership.
                assert requester in runtime.home
                if scope is not None:
                    assert candidate.op_id == scope
                length = self.node.queue_sets[candidate.op_id].size(
                    candidate.queue_index
                )
                # (ii) enough work; (iii) at most the steal fraction.
                params = self.context.params
                assert length >= params.min_steal_activations
                assert candidate.steal_count == max(
                    1, int(length * params.steal_fraction)
                )
                # (i) the requester can store the shipment.
                assert candidate.overhead <= free_memory
            return candidate

        monkeypatch.setattr(NodeScheduler, "_best_candidate", checked)
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config, r=1500, s=3000)
        coordinator, metrics = run_workload(
            plan, config, queries=6, mpl=4, skew=0.8, seed=3,
        )
        assert metrics.completed == 6
        # The skewed run must actually have exercised the protocol.
        assert audited["offers"] > 0


# ---------------------------------------------------------------------------
# Determinism regression (the multi-root-process event-ordering guard)
# ---------------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("kind", ["closed", "poisson", "bursty"])
    def test_same_seed_byte_identical_metrics(self, kind):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config)
        summaries = []
        for _ in range(2):
            _, metrics = run_workload(
                plan, config, queries=6, kind=kind, mpl=3, skew=0.8, seed=17,
            )
            summaries.append(repr(metrics.summary()))
        assert summaries[0] == summaries[1]

    def test_different_seeds_differ_open_loop(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config)
        _, a = run_workload(plan, config, queries=6, kind="poisson", seed=1)
        _, b = run_workload(plan, config, queries=6, kind="poisson", seed=2)
        assert repr(a.summary()) != repr(b.summary())

    @pytest.mark.parametrize("strategy,nodes,procs", [
        ("DP", 2, 4), ("FP", 2, 4), ("SP", 1, 4),
    ])
    def test_mpl8_pipeline_chain_completes_deterministically(
            self, strategy, nodes, procs):
        """Acceptance: MPL-8 runs of the Section 5.3 pipeline chain
        complete under SP, FP and DP, and are bit-deterministic.  (SP is
        the shared-memory model, hence the single-node configuration.)"""
        plan, config = pipeline_chain_scenario(
            nodes=nodes, processors_per_node=procs, base_tuples=1000,
        )
        summaries = []
        for _ in range(2):
            _, metrics = run_workload(
                plan, config, queries=10, strategy=strategy, mpl=8,
                skew=0.8 if strategy != "SP" else 0.0, seed=8,
            )
            assert metrics.completed == 10
            assert metrics.unfinished == 0
            summaries.append(repr(metrics.summary()))
        assert summaries[0] == summaries[1]


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

class TestAdmission:
    @given(mpl=st.integers(min_value=1, max_value=5),
           seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_multiprogramming_cap_never_exceeded(self, mpl, seed):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config)
        coordinator, metrics = run_workload(
            plan, config, queries=8, kind="bursty", rate=200.0,
            mpl=mpl, seed=seed,
        )
        assert metrics.completed == 8
        assert 1 <= coordinator.peak_running <= mpl

    def test_memory_gate_defers_when_tables_do_not_fit(self):
        # Hash tables of ~300 KB/query (150 KB per node) on 180 KB nodes:
        # a query's demand exceeds the 0.8 headroom of even an idle node,
        # so the controller admits each query alone (the progress
        # guarantee) even though the MPL cap would allow eight at once.
        config = MachineConfig(nodes=2, processors_per_node=2,
                               memory_per_processor=90 * 1024)
        plan = small_join_plan(config, r=3000, s=3600)
        spec = WorkloadSpec(
            queries=6,
            arrival=ArrivalSpec(kind="poisson", rate=500.0),
            strategy="DP",
            policy=AdmissionPolicy(max_multiprogramming=8),
            seed=5,
        )
        driver = WorkloadDriver(plan, config, spec)
        coordinator = driver.build_coordinator()
        metrics = coordinator.run()
        assert metrics.completed == 6
        assert coordinator.admission.deferrals > 0
        assert coordinator.peak_running < 8

    def test_memory_overcommit_degrades_instead_of_crashing(self):
        # Admission reads *current* free memory, so two queries admitted
        # back-to-back can together out-build the estimate.  The engine
        # must absorb the overcommit (unreserved accounting, recorded in
        # memory_overcommit_bytes), not crash the whole workload with
        # MemoryExhausted.
        config = MachineConfig(nodes=2, processors_per_node=2,
                               memory_per_processor=110 * 1024)
        plan = small_join_plan(config, r=3000, s=3600)
        spec = WorkloadSpec(
            queries=4,
            arrival=ArrivalSpec(kind="poisson", rate=500.0),
            policy=AdmissionPolicy(max_multiprogramming=8),
            seed=5,
        )
        metrics = WorkloadDriver(plan, config, spec).run().metrics
        assert metrics.completed == 4
        overcommitted = sum(
            c.result.metrics.memory_overcommit_bytes
            for c in metrics.completions
        )
        assert overcommitted > 0
        for c in metrics.completions:
            assert c.result.metrics.result_tuples == 3600

    def test_a_lone_run_still_raises_when_a_chain_does_not_fit(self):
        # The other side of the same coin: a machine built for one query
        # keeps the paper's chain-fits-in-memory assumption (Section 2.2),
        # a shared one tolerates the overcommit.  Which one is the
        # substrate builder's call (``strict_memory``), not a spec field.
        from repro.sim.machine import MemoryExhausted

        config = MachineConfig(nodes=2, processors_per_node=2,
                               memory_per_processor=30 * 1024)
        plan = small_join_plan(config, r=3000, s=3600)
        executor = QueryExecutor(plan, config)
        with pytest.raises(MemoryExhausted):
            executor.run()
        shared = MultiQueryCoordinator(config).substrate
        assert not shared.strict_memory
        context = executor.launch(shared)
        shared.env.run()
        result = executor.collect(context)
        assert result.metrics.memory_overcommit_bytes > 0
        assert result.metrics.result_tuples == 3600

    def test_sp_on_multi_node_substrate_rejected_at_submit(self):
        from repro.engine import StrategyError

        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config)
        coordinator = MultiQueryCoordinator(config)
        with pytest.raises(StrategyError):
            coordinator.submit(plan, strategy="SP")

    def test_duplicate_query_id_rejected(self):
        # Ids are checked where they enter from outside: a loaded trace.
        # The coordinator keys running queries by id and trusts them.
        from repro.serving.trace import QuerySubmitted, Trace

        events = [QuerySubmitted(time=when, query_id=5, plan_index=0,
                                 plan_label="p", strategy="DP",
                                 service_class=None, params_seed=0)
                  for when in (0.0, 1.0)]
        assert len(Trace.from_events(events[:1]).queries) == 1
        with pytest.raises(ValueError, match="query id 5"):
            Trace.from_events(events)

    def test_deferrals_counted_per_query_not_per_wakeup(self):
        # Eight queries arrive at once with an MPL cap of 1: each of the
        # seven non-head queries becomes head-of-line and is deferred
        # exactly once, however many times the gate re-evaluates.
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config)
        spec = WorkloadSpec(
            queries=8,
            arrival=ArrivalSpec(kind="poisson", rate=10_000.0),
            policy=AdmissionPolicy(max_multiprogramming=1),
            seed=3,
        )
        driver = WorkloadDriver(plan, config, spec)
        coordinator = driver.build_coordinator()
        metrics = coordinator.run()
        assert metrics.completed == 8
        assert coordinator.admission.deferrals <= 8

    def test_queueing_delay_appears_under_bursts(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config)
        _, metrics = run_workload(
            plan, config, queries=8, kind="bursty", rate=300.0, mpl=2,
            seed=9,
        )
        assert metrics.completed == 8
        assert metrics.max_queueing_delay() > 0.0


# ---------------------------------------------------------------------------
# Queueing-delay / execution-time separation
# ---------------------------------------------------------------------------

class TestLatencyAccounting:
    def test_latency_decomposition_is_exact(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config)
        _, metrics = run_workload(
            plan, config, queries=8, kind="bursty", rate=300.0, mpl=2,
            seed=4,
        )
        for c in metrics.completions:
            assert c.queueing_delay >= 0.0
            assert c.execution_time > 0.0
            assert c.queueing_delay + c.execution_time == pytest.approx(
                c.latency, abs=1e-12
            )
            assert c.result.queueing_delay == pytest.approx(
                c.queueing_delay, abs=1e-12
            )
            assert c.result.metrics.response_time == pytest.approx(
                c.execution_time, abs=1e-12
            )

    def test_single_query_path_reports_zero_queueing(self):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = small_join_plan(config)
        result = QueryExecutor(plan, config, strategy="DP").run()
        assert result.queueing_delay == 0.0
        assert result.latency == result.response_time
        assert result.metrics.cpu_contention_time == 0.0


# ---------------------------------------------------------------------------
# Inter-query behaviour
# ---------------------------------------------------------------------------

class TestInterQueryBehaviour:
    def test_concurrent_queries_contend_for_processors(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config)
        _, solo = run_workload(plan, config, queries=4, mpl=1, seed=2)
        _, packed = run_workload(plan, config, queries=4, mpl=4, seed=2)
        # Sequential execution has no CPU contention; the packed run must.
        assert solo.total_cpu_contention() == 0.0
        assert packed.total_cpu_contention() > 0.0
        # Sharing the machine stretches each query but shrinks the whole.
        assert packed.mean_execution_time() > solo.mean_execution_time()
        assert packed.makespan < solo.makespan

    def test_dp_throughput_meets_fp_under_skew(self):
        plan, config = pipeline_chain_scenario(
            nodes=2, processors_per_node=4, base_tuples=1500,
        )
        results = {}
        for strategy in ("DP", "FP"):
            _, metrics = run_workload(
                plan, config, queries=8, strategy=strategy, mpl=8,
                skew=0.8, seed=12,
            )
            results[strategy] = metrics
        assert results["DP"].throughput() >= results["FP"].throughput()

    def test_generator_plan_population_mixes_queries(self):
        # Arrival streams can draw from a generated plan population
        # (repro.query.generator), not just canned scenarios.
        from repro.optimizer import best_bushy_trees
        from repro.query import QueryGenerator, QueryGeneratorConfig
        from repro.sim import RandomStreams

        config = MachineConfig(nodes=2, processors_per_node=2)
        generator = QueryGenerator(
            RandomStreams(7),
            QueryGeneratorConfig(relations_per_query=3, scale=0.002),
        )
        plans = []
        for index in range(3):
            graph = generator.generate(index)
            tree = best_bushy_trees(graph, k=1)[0]
            plans.append(compile_plan(graph, tree, config, label=f"g{index}"))
        spec = WorkloadSpec(
            queries=6, arrival=ArrivalSpec(kind="closed", population=3),
            policy=AdmissionPolicy(max_multiprogramming=3), seed=5,
        )
        metrics = WorkloadDriver(plans, config, spec).run().metrics
        assert metrics.completed == 6
        assert {c.plan_label for c in metrics.completions} <= {
            "g0", "g1", "g2"
        }
        assert len({c.plan_label for c in metrics.completions}) >= 2

    def test_mixed_strategy_workload_shares_one_machine(self):
        config = MachineConfig(nodes=1, processors_per_node=4)
        plan = small_join_plan(config)
        coordinator = MultiQueryCoordinator(config)

        def submit_all():
            coordinator.submit(plan, strategy="SP")
            coordinator.submit(plan, strategy="DP")
            coordinator.submit(plan, strategy="FP")
            coordinator.close_arrivals()
            return
            yield  # pragma: no cover - generator marker

        coordinator.env.process(submit_all(), name="mixed-submit")
        metrics = coordinator.run()
        assert metrics.completed == 3
        assert {c.strategy for c in metrics.completions} == {"SP", "DP", "FP"}
