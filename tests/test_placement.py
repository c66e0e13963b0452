"""Placement subsystem: paper no-op guarantee, policy invariants, serde.

The load-bearing properties:

* **paper is a strict no-op** — on every plan-population shape, a run
  with the default ``paper`` policy is *byte-identical* to a coordinator
  built with no placement wiring at all, and its summary carries no
  ``placement`` digest key (the pre-placement determinism baselines
  cannot move);
* **membership safety** — on an elastic timeline, every placed home is
  a subset of the nodes the admission-time plan was resolved for
  (current, non-draining members only);
* **accounting** — placement decisions are recorded exactly once per
  admitted query, so the per-policy counters sum to the admission count;
* **home-rewrite legality** — rewrites only ever *narrow* join homes,
  keep build/probe pairs co-located and never touch a scan (the
  ``validate_homes`` contract re-checked by the plan constructor);
* **spec safety** — an unknown scheduler or knob fails at spec load
  with a dotted-path :class:`~repro.api.serde.SpecError`, not at run
  time, and every placement spec round-trips losslessly through JSON.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.api import ScenarioSpec, SpecError, replace_path, run as run_scenario
from repro.api.spec import PlanSpec
from repro.engine.params import ExecutionParams
from repro.optimizer.operator_tree import OpKind
from repro.placement import (
    ClusterView,
    PlacementSpec,
    available_policies,
    get_policy,
    place_plan,
)
from repro.placement.base import rewrite_homes
from repro.serving import MemoryLogger, WorkloadDriver, WorkloadSpec, read_events
from repro.serving.driver import AdmissionPolicy, ArrivalSpec
from repro.serving.trace import QueryPlaced, decode_event, encode_event
from repro.sim import MachineConfig

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples" / "scenarios"

#: every plan-population shape the spec layer can build, on a machine
#: that satisfies its constraints (two_node demands exactly 2 nodes).
SHAPES = (
    ("pipeline_chain", MachineConfig(nodes=2, processors_per_node=2),
     PlanSpec(kind="pipeline_chain", base_tuples=1000, chain_joins=3)),
    ("two_node", MachineConfig(nodes=2, processors_per_node=2),
     PlanSpec(kind="two_node", r_tuples=1000, s_tuples=2000)),
    ("io_heavy", MachineConfig(nodes=4, processors_per_node=2),
     PlanSpec(kind="io_heavy", base_tuples=2000)),
    ("workload_mix", MachineConfig(nodes=4, processors_per_node=2),
     PlanSpec(kind="workload_mix", plan_count=3, workload_queries=3,
              scale=0.005)),
)

SMART_POLICIES = ("round_robin", "load_aware", "location_aware",
                  "transfer_aware", "threshold_local")


def summary_bytes(metrics):
    return json.dumps(metrics.summary(), sort_keys=True)


def serving_spec(**overrides):
    base = dict(
        queries=6,
        arrival=ArrivalSpec(kind="closed", population=3),
        policy=AdmissionPolicy(max_multiprogramming=3),
        seed=11,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


# -- the paper no-op guarantee ----------------------------------------------


class TestPaperIsNoOp:
    @pytest.mark.parametrize("name,config,plan_spec", SHAPES,
                             ids=[s[0] for s in SHAPES])
    def test_byte_identical_to_unwired_coordinator(self, name, config,
                                                   plan_spec):
        plans = plan_spec.build(config)
        spec = serving_spec()
        assert spec.placement.scheduler == "paper"
        with_paper = WorkloadDriver(list(plans), config, spec).run().metrics
        legacy_spec = dataclasses.replace(spec, placement=None)
        legacy = WorkloadDriver(list(plans), config, legacy_spec).run().metrics
        assert summary_bytes(with_paper) == summary_bytes(legacy)

    def test_paper_summary_has_no_placement_key(self):
        _name, config, plan_spec = SHAPES[0]
        metrics = WorkloadDriver(
            list(plan_spec.build(config)), config, serving_spec()
        ).run().metrics
        assert "placement" not in metrics.summary()

    def test_paper_policy_choose_is_none(self):
        assert get_policy("paper").choose(None, 0, PlacementSpec(), None) is None


# -- policy invariants -------------------------------------------------------


class TestPolicyInvariants:
    def test_registry_roster(self):
        assert available_policies() == tuple(sorted(
            ("paper",) + SMART_POLICIES
        ))

    def test_unknown_policy_raises_with_roster(self):
        with pytest.raises(KeyError, match="round_robin"):
            get_policy("definitely_not_a_policy")

    @pytest.mark.parametrize("policy", SMART_POLICIES)
    def test_counters_sum_to_admitted(self, policy):
        _name, config, plan_spec = SHAPES[3]
        logger = MemoryLogger()
        metrics = WorkloadDriver(
            list(plan_spec.build(config)), config,
            serving_spec(placement=PlacementSpec(scheduler=policy, width=2)),
            logger=logger,
        ).run().metrics
        admitted = sum(1 for e in logger.events
                       if type(e).kind == "query_admitted")
        assert sum(metrics.placements.values()) == admitted == 6
        assert set(metrics.placements) == {policy}
        assert 0 <= metrics.placements_changed <= admitted
        summary = metrics.summary()
        assert summary["placement"]["policies"] == {policy: admitted}

    @pytest.mark.parametrize("policy", SMART_POLICIES)
    def test_placed_homes_stay_legal(self, policy):
        # The plan constructor re-runs validate_tree/validate_homes on
        # every rewrite, so a completed run with rewrites is itself the
        # legality proof; assert rewrites actually happened for the
        # policies that narrow (width < nodes).
        _name, config, plan_spec = SHAPES[2]
        metrics = WorkloadDriver(
            list(plan_spec.build(config)), config,
            serving_spec(placement=PlacementSpec(scheduler=policy, width=2)),
        ).run().metrics
        assert metrics.completed == 6
        assert sum(metrics.placements.values()) == 6

    def test_streaming_metrics_carry_placement_digest(self):
        _name, config, plan_spec = SHAPES[3]
        metrics = WorkloadDriver(
            list(plan_spec.build(config)), config,
            serving_spec(placement=PlacementSpec(scheduler="load_aware",
                                                 width=2)),
        ).run().metrics
        summary = metrics.summary()
        assert summary["placement"]["policies"] == {"load_aware": 6}

    def test_elastic_placements_use_only_current_members(self, tmp_path):
        text = (SCENARIO_DIR / "elastic_surge.json").read_text()
        spec = ScenarioSpec.from_json(text)
        spec = replace_path(spec, "workload.placement.scheduler",
                            "round_robin")
        spec = replace_path(spec, "workload.placement.width", 2)
        record = tmp_path / "placed.jsonl"
        run_scenario(spec, record=record)
        events = list(read_events(record))
        placed = [e for e in events if type(e).kind == "query_placed"]
        assert placed, "elastic run placed no queries"
        active = spec.cluster.initial_nodes
        for event in events:
            kind = type(event).kind
            if kind in ("node_joined", "node_draining"):
                active = event.active_nodes
            elif kind == "query_placed":
                assert set(event.nodes) <= set(range(active)), (
                    f"query {event.query_id} placed on {event.nodes} with "
                    f"only {active} planned members"
                )


# -- home-rewrite legality ---------------------------------------------------


class TestRewriteHomes:
    def plan(self):
        _name, config, plan_spec = SHAPES[2]
        return plan_spec.build(config)[0], config

    def test_narrows_build_and_probe_together(self):
        plan, _config = self.plan()
        placed, changed = rewrite_homes(plan, (0, 1))
        assert changed
        tree = plan.operators
        for op in tree:
            if op.kind is OpKind.BUILD:
                probe_id = tree.probe_of(op.op_id)
                assert placed.homes[op.op_id] == placed.homes[probe_id]
                assert set(placed.homes[op.op_id]) <= set(plan.homes[op.op_id])

    def test_scan_homes_untouched(self):
        plan, _config = self.plan()
        placed, _changed = rewrite_homes(plan, (0,))
        for op in plan.operators:
            if op.kind is OpKind.SCAN:
                assert placed.homes[op.op_id] == plan.homes[op.op_id]

    def test_disjoint_target_keeps_original_home(self):
        plan, _config = self.plan()
        placed, changed = rewrite_homes(plan, (99,))
        assert not changed and placed is plan

    def test_decision_recorded_even_when_unchanged(self):
        plan, config = self.plan()
        view = ClusterView(
            planning_nodes=tuple(range(config.nodes)),
            node_load=lambda _n: 0, admitted=0,
            params=ExecutionParams(), config=config,
        )
        spec = PlacementSpec(scheduler="load_aware", width=0)  # full width
        placed, decision = place_plan(
            plan, get_policy("load_aware"), spec, view, query_id=0
        )
        assert decision is not None and not decision.changed
        assert placed is plan


# -- spec safety -------------------------------------------------------------


class TestPlacementSpecSerde:
    @pytest.mark.parametrize("policy", ("paper",) + SMART_POLICIES)
    def test_round_trips_losslessly(self, policy):
        spec = replace_path(ScenarioSpec(), "workload.placement",
                            PlacementSpec(scheduler=policy, width=3,
                                          threshold=7))
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def _quickstart_dict(self):
        return json.loads((SCENARIO_DIR / "quickstart.json").read_text())

    def test_unknown_scheduler_is_dotted_path_spec_error(self):
        data = self._quickstart_dict()
        data["workload"]["placement"]["scheduler"] = "bogus"
        with pytest.raises(SpecError, match=r"\$\.workload\.placement"):
            ScenarioSpec.from_dict(data)

    def test_unknown_knob_is_dotted_path_spec_error(self):
        data = self._quickstart_dict()
        data["workload"]["placement"]["widthh"] = 3
        with pytest.raises(SpecError, match=r"\$\.workload\.placement"):
            ScenarioSpec.from_dict(data)

    def test_negative_width_rejected_at_load(self):
        data = self._quickstart_dict()
        data["workload"]["placement"]["width"] = -1
        with pytest.raises(SpecError, match=r"\$\.workload\.placement"):
            ScenarioSpec.from_dict(data)

    def test_unknown_scheduler_rejected_at_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            PlacementSpec(scheduler="bogus")

    def test_scheduler_is_directly_sweepable(self):
        spec = replace_path(ScenarioSpec(), "workload.placement.scheduler",
                            "load_aware")
        assert spec.workload.placement.scheduler == "load_aware"
        assert spec.workload.placement.active

    def test_example_placement_sweep_is_canonical(self):
        text = (SCENARIO_DIR / "placement_sweep.json").read_text()
        spec = ScenarioSpec.from_json(text)
        assert spec.workload.placement.active
        assert spec.to_json() == text


# -- trace event codec -------------------------------------------------------


class TestQueryPlacedCodec:
    def test_round_trips_with_tuple_nodes(self):
        event = QueryPlaced(time=1.5, query_id=3, policy="load_aware",
                            nodes=(0, 2), bytes_avoided=123)
        decoded = decode_event(json.loads(json.dumps(encode_event(event))))
        assert decoded == event
        assert isinstance(decoded.nodes, tuple)


# -- experiment CLI ----------------------------------------------------------


class TestExperimentsList:
    def test_list_flag_prints_registry(self, capsys):
        from repro.experiments import runner

        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(runner.EXPERIMENTS)
        by_name = dict(line.split(": ", 1) for line in lines)
        assert set(by_name) == set(runner.EXPERIMENTS)
        assert "placement" in by_name
