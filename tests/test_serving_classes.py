"""Service classes, overload handling and cross-query stealing.

The serving-side contract of the machine-scheduler layer:

* admission is strict priority across classes: a higher-priority query
  bypasses lower-priority work queued ahead of it;
* open-loop overload handling (queue timeouts, deadline shedding)
  resolves every query — completed or shed — instead of queueing without
  bound, and the per-class metrics account for both;
* the CPU disciplines differentiate the classes end to end: under
  priority-preemptive scheduling the interactive class's p95 latency
  beats FIFO's at MPL 8 while batch throughput stays within 20%;
* cross-query machine-share stealing strictly reduces makespan in the
  skewed stress scenario (one large skewed query co-resident with small
  queries), and never moves an activation outside the paper's
  five-condition protocol (audited by the in-situ legality tests).
"""

import dataclasses

import pytest

from repro.catalog import Relation, SkewSpec
from repro.engine import ExecutionParams
from repro.experiments.config import scaled_execution_params
from repro.optimizer import BaseNode, JoinNode, compile_plan
from repro.query import JoinEdge, QueryGraph
from repro.serving import (
    BATCH,
    INTERACTIVE,
    AdmissionPolicy,
    ArrivalSpec,
    ServiceClass,
    WorkloadSpec,
)
from repro.serving.admission import AdmissionController
from repro.serving.coordinator import MultiQueryCoordinator
from repro.serving.driver import WorkloadDriver
from repro.sim import MachineConfig
from repro.workloads import pipeline_chain_scenario


def join_plan(config, r=600, s=1200, label="classy"):
    sel = 1.0 / r
    graph = QueryGraph(
        [Relation("R", r), Relation("S", s)], [JoinEdge("R", "S", sel)]
    )
    tree = JoinNode(BaseNode(graph.relation("R")), BaseNode(graph.relation("S")),
                    sel)
    return compile_plan(graph, tree, config, label=label)


# ---------------------------------------------------------------------------
# Service-class admission gates
# ---------------------------------------------------------------------------

class TestPerClassAdmission:
    def test_priority_class_bypasses_blocked_lower_priority_head(self):
        # Batch floods the queue first and the policy's MPL of 1 blocks
        # its heads; an interactive query arriving later must be
        # admitted ahead of the queued batch work.
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = join_plan(config)
        coordinator = MultiQueryCoordinator(
            config, policy=AdmissionPolicy(max_multiprogramming=1)
        )
        env = coordinator.env
        requests = {}

        def submit():
            for i in range(3):
                requests[f"b{i}"] = coordinator.submit(
                    plan, service_class=BATCH, query_id=i
                )
            yield env.timeout(1e-4)
            requests["i0"] = coordinator.submit(
                plan, service_class=INTERACTIVE, query_id=10
            )
            coordinator.close_arrivals()

        env.process(submit(), name="submit")
        metrics = coordinator.run()
        assert metrics.completed == 4
        # The interactive query started before the 2nd and 3rd batch
        # queries even though it arrived after them.
        assert (requests["i0"].start_time
                < requests["b1"].completion.start_time)
        assert (requests["i0"].start_time
                < requests["b2"].completion.start_time)

    def test_sp_queries_carry_their_service_class(self):
        # SP workers charge the shared processors too: under the fair
        # discipline a weight-4 SP query must out-run a weight-1 one
        # that shares the machine, and the completions carry the class.
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = join_plan(config, r=1500, s=3000)
        params = ExecutionParams(cpu_discipline="fair")
        heavy = ServiceClass("heavy", weight=8.0)
        light = ServiceClass("light", weight=1.0)
        coordinator = MultiQueryCoordinator(
            config, params=params,
            policy=AdmissionPolicy(max_multiprogramming=4),
        )

        def submit():
            coordinator.submit(plan, strategy="SP", service_class=heavy,
                               query_id=0)
            coordinator.submit(plan, strategy="SP", service_class=light,
                               query_id=1)
            coordinator.close_arrivals()
            return
            yield  # pragma: no cover - generator marker

        coordinator.env.process(submit(), name="submit")
        metrics = coordinator.run()
        assert metrics.completed == 2
        by_class = {c.service_class: c for c in metrics.completions}
        assert set(by_class) == {"heavy", "light"}
        assert (by_class["heavy"].completion_time
                < by_class["light"].completion_time)

    def test_single_class_workload_is_plain_fifo(self):
        # With one class the scheduler must preserve head-of-line order.
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = join_plan(config)
        spec = WorkloadSpec(
            queries=8,
            arrival=ArrivalSpec(kind="poisson", rate=5000.0),
            policy=AdmissionPolicy(max_multiprogramming=1),
            seed=7,
        )
        metrics = WorkloadDriver(plan, config, spec).run().metrics
        starts = [c.start_time for c in sorted(metrics.completions,
                                               key=lambda c: c.query_id)]
        assert starts == sorted(starts)


# ---------------------------------------------------------------------------
# Overload handling: queue timeouts + deadline shedding
# ---------------------------------------------------------------------------

class TestOverloadHandling:
    def overloaded_spec(self, classes, policy, queries=12, seed=11):
        return WorkloadSpec(
            queries=queries,
            arrival=ArrivalSpec(kind="bursty", rate=400.0, burst_size=12),
            policy=policy,
            classes=classes,
            seed=seed,
        )

    def test_queue_timeout_sheds_instead_of_queueing_forever(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = join_plan(config, r=1500, s=3000)
        impatient = ServiceClass("impatient", queue_timeout=0.05)
        spec = self.overloaded_spec(
            ((impatient, 1.0),),
            AdmissionPolicy(max_multiprogramming=1),
        )
        metrics = WorkloadDriver(plan, config, spec).run().metrics
        assert metrics.shed_count > 0
        assert metrics.completed + metrics.shed_count == 12
        for record in metrics.shed:
            assert record.reason == "queue_timeout"
            assert record.queued_for >= 0.05 - 1e-9
        # Shed queries resolved their done event with None (clients see
        # the rejection, not a hang) and never started executing.
        shed_ids = {record.query_id for record in metrics.shed}
        assert shed_ids.isdisjoint(c.query_id for c in metrics.completions)

    def test_deadline_shedding_uses_the_class_slo(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = join_plan(config, r=1500, s=3000)
        slo = ServiceClass("tight", latency_slo=0.06)
        spec = self.overloaded_spec(
            ((slo, 1.0),),
            AdmissionPolicy(max_multiprogramming=1, deadline_shedding=True),
        )
        metrics = WorkloadDriver(plan, config, spec).run().metrics
        assert metrics.shed_count > 0
        assert all(r.reason == "deadline" for r in metrics.shed)
        # Attainment counts the shed queries as misses.
        assert metrics.slo_attainment("tight") < 1.0

    def test_shed_deadline_names_its_reason(self):
        controller = AdmissionController(
            None, AdmissionPolicy(queue_timeout=2.0, deadline_shedding=True))
        assert controller.shed_deadline(1.0, ServiceClass("best-effort")) \
            == (3.0, "queue_timeout")
        assert controller.shed_deadline(
            1.0, ServiceClass("tight", latency_slo=0.5)) == (1.5, "deadline")
        assert controller.shed_deadline(
            1.0, ServiceClass("loose", latency_slo=5.0, queue_timeout=0.25)
        ) == (1.25, "queue_timeout")
        # a timeout/SLO tie is an SLO miss
        assert controller.shed_deadline(
            1.0, ServiceClass("tie", latency_slo=2.0)) == (3.0, "deadline")
        patient = AdmissionController(None, AdmissionPolicy())
        assert patient.shed_deadline(
            1.0, ServiceClass("tight", latency_slo=0.5)
        ) == (None, "queue_timeout")

    def test_one_name_means_one_class(self):
        # Pending order, every per-class metric and the head-only
        # expiry check are keyed by class *name*.  A second,
        # different ServiceClass under a seen name used to queue behind a
        # head with a later deadline and rot past its own (shed at 0.0674
        # instead of 0.001 here); submit() now refuses it.
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = join_plan(config)
        coordinator = MultiQueryCoordinator(
            config, policy=AdmissionPolicy(max_multiprogramming=1)
        )
        patient = ServiceClass("x", queue_timeout=10.0)
        coordinator.submit(plan, service_class=patient)
        coordinator.submit(plan, service_class=patient)
        with pytest.raises(ValueError, match="service class 'x'"):
            coordinator.submit(
                plan, service_class=ServiceClass("x", queue_timeout=0.001)
            )
        # an equal class is the same class, whichever object carries it
        coordinator.submit(
            plan, service_class=ServiceClass("x", queue_timeout=10.0)
        )
        coordinator.close_arrivals()
        metrics = coordinator.run()
        # the refused submission consumed nothing: ids stay dense
        assert [c.query_id for c in metrics.completions] == [0, 1, 2]
        assert metrics.shed_count == 0

    def test_no_overload_policy_means_no_shedding(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = join_plan(config, r=1500, s=3000)
        spec = self.overloaded_spec(
            (), AdmissionPolicy(max_multiprogramming=1),
        )
        metrics = WorkloadDriver(plan, config, spec).run().metrics
        assert metrics.shed_count == 0
        assert metrics.completed == 12

    def test_per_class_metrics_split_the_run(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = join_plan(config)
        inter = dataclasses.replace(INTERACTIVE, latency_slo=5.0)
        spec = WorkloadSpec(
            queries=10,
            arrival=ArrivalSpec(kind="closed", population=4),
            policy=AdmissionPolicy(max_multiprogramming=4),
            classes=((inter, 1.0), (BATCH, 1.0)),
            seed=5,
        )
        metrics = WorkloadDriver(plan, config, spec).run().metrics
        names = metrics.class_names()
        assert set(names) <= {"interactive", "batch"}
        assert sum(1 for c in metrics.completions
                   if c.service_class in names) == 10
        per_class = metrics.per_class_summary()
        for name in names:
            assert per_class[name]["completed"] == sum(
                1 for c in metrics.completions if c.service_class == name
            )
        # A generous SLO is attained; batch (no SLO, nothing shed) is 1.0.
        if "interactive" in names:
            assert metrics.slo_attainment("interactive") == 1.0
        if "batch" in names:
            assert metrics.slo_attainment("batch") == 1.0


# ---------------------------------------------------------------------------
# Disciplines end to end: the acceptance ordering
# ---------------------------------------------------------------------------

class TestDisciplineDifferentiation:
    def run_mixed(self, discipline, mpl=8, seed=5):
        plan, config = pipeline_chain_scenario(
            nodes=2, processors_per_node=4, base_tuples=2000,
        )
        params = scaled_execution_params(
            skew=SkewSpec(redistribution=0.8), seed=seed,
            cpu_discipline=discipline,
        )
        inter = dataclasses.replace(INTERACTIVE, latency_slo=0.3)
        spec = WorkloadSpec(
            queries=18,
            arrival=ArrivalSpec(kind="closed", population=mpl),
            policy=AdmissionPolicy(max_multiprogramming=mpl),
            classes=((inter, 1.0), (BATCH, 2.0)),
            seed=seed,
        )
        return WorkloadDriver(plan, config, spec, params).run().metrics

    def test_priority_preemption_improves_interactive_p95_at_mpl8(self):
        fifo = self.run_mixed("fifo")
        prio = self.run_mixed("priority")
        assert (prio.class_latency_percentile("interactive", 95.0)
                < fifo.class_latency_percentile("interactive", 95.0))
        # Batch pays, but bounded: throughput within 20% of FIFO's.
        assert (prio.class_throughput("batch")
                >= 0.8 * fifo.class_throughput("batch"))

    def test_fair_share_improves_interactive_p95_at_mpl8(self):
        fifo = self.run_mixed("fifo")
        fair = self.run_mixed("fair")
        assert (fair.class_latency_percentile("interactive", 95.0)
                < fifo.class_latency_percentile("interactive", 95.0))

    @pytest.mark.parametrize("discipline", ["fifo", "fair", "priority"])
    def test_every_discipline_is_deterministic(self, discipline):
        a = self.run_mixed(discipline, seed=9)
        b = self.run_mixed(discipline, seed=9)
        assert repr(a.summary()) == repr(b.summary())

    @pytest.mark.parametrize("discipline", ["fair", "priority"])
    def test_disciplines_conserve_work(self, discipline):
        metrics = self.run_mixed(discipline, mpl=4)
        for completion in metrics.completions:
            m = completion.result.metrics
            assert m.activations_processed == (
                m.trigger_activations + m.data_activations
            )


# ---------------------------------------------------------------------------
# Cross-query machine-share stealing
# ---------------------------------------------------------------------------

def skewed_stress_scenario(cross_query_steal, seed=2, smalls=4, gap=0.01):
    """One large heavily-skewed query co-resident with small queries that
    leave machine share idle — the broker's showcase.  Every query runs
    under the run's params (skew 1.0) and brings its own seed."""
    config = MachineConfig(nodes=2, processors_per_node=2)
    big = join_plan(config, 4000, 8000, "big")
    small = join_plan(config, 400, 800, "small")
    params = scaled_execution_params(
        skew=SkewSpec(redistribution=1.0), seed=seed,
        cross_query_steal=cross_query_steal,
    )
    coordinator = MultiQueryCoordinator(
        config, params=params,
        policy=AdmissionPolicy(max_multiprogramming=8),
    )
    env = coordinator.env

    def submit():
        coordinator.submit(big)
        for i in range(smalls):
            yield env.timeout(gap)
            coordinator.submit(small, seed=100 + seed * 10 + i)
        coordinator.close_arrivals()

    env.process(submit(), name="submit")
    return coordinator.run()


class TestCrossQuerySteal:
    def test_strictly_reduces_makespan_in_the_skewed_stress_scenario(self):
        on = skewed_stress_scenario(True)
        off = skewed_stress_scenario(False)
        assert on.total_cross_steal_rounds() > 0
        assert off.total_cross_steal_rounds() == 0
        assert on.makespan < off.makespan

    def test_broker_counts_are_reported(self):
        metrics = skewed_stress_scenario(True)
        assert metrics.broker_notifications > 0
        assert metrics.summary()["cross_steal_rounds"] == \
               metrics.total_cross_steal_rounds()

    def test_disabled_broker_never_fires(self):
        metrics = skewed_stress_scenario(False)
        assert metrics.broker_notifications == 0
        assert metrics.total_cross_steal_rounds() == 0

    def test_single_query_runs_are_untouched_by_the_broker(self):
        # A lone query on the machine: the broker has no co-resident
        # context, so enabling it cannot change anything.
        from repro.engine import QueryExecutor
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = join_plan(config, 1500, 3000)
        results = []
        for steal in (True, False):
            params = ExecutionParams(
                skew=SkewSpec(redistribution=0.8), seed=3,
                cross_query_steal=steal,
            )
            result = QueryExecutor(plan, config, params=params).run()
            results.append((result.response_time,
                            result.metrics.steal_rounds,
                            result.metrics.cross_steal_rounds))
        assert results[0] == results[1]
        assert results[0][2] == 0

    def test_cross_steals_pass_the_five_conditions_audit(self, monkeypatch):
        """Every offer made during a broker-heavy run still satisfies the
        paper's conditions — the broker changes who asks, never what may
        move."""
        from repro.engine.scheduler import NodeScheduler
        from repro.optimizer.operator_tree import OpKind

        original = NodeScheduler._best_candidate
        audited = {"offers": 0}

        def checked(self, requester, scope, free_memory, cached):
            candidate = original(self, requester, scope, free_memory, cached)
            if candidate is not None:
                audited["offers"] += 1
                runtime = self.context.ops[candidate.op_id]
                assert runtime.kind is OpKind.PROBE
                assert not runtime.blocked and not runtime.terminated
                assert requester in runtime.home
                assert candidate.overhead <= free_memory
            return candidate

        monkeypatch.setattr(NodeScheduler, "_best_candidate", checked)
        metrics = skewed_stress_scenario(True)
        assert metrics.total_cross_steal_rounds() > 0
        assert audited["offers"] > 0
