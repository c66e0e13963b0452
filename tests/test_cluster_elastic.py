"""Elastic cluster: membership, autoscaler timing, rebalance accounting.

The contracts under test:

* :class:`~repro.cluster.membership.ClusterMembership` — prefix-shaped
  join/drain/leave transitions and their error surface;
* :class:`~repro.cluster.spec.ClusterSpec` — timeline validation,
  reachable sizes, serde identity (including the shipped example);
* the autoscaler's cooldown is *boundary inclusive*: a decision exactly
  ``cooldown`` after the previous one is allowed;
* scale-in drains: in-flight queries that span a draining node finish
  before the node leaves;
* byte conservation: the bytes that cross the interconnect during a
  rebalance equal the partition bytes the placement diff moves — never
  a full re-send;
* the façade/CLI surface: elastic runs end-to-end from a scenario file,
  ``record=`` takes a ``pathlib.Path``, ``--json`` emits the lossless
  :class:`~repro.api.facade.RunResult` document.
"""

import json
import pathlib

import pytest

from repro.api import ScenarioSpec, run
from repro.api.cli import main as cli_main
from repro.api.serde import SpecError, decode, encode
from repro.api.spec import PlanSpec
from repro.catalog.partitioning import place_relation, rebalance_moves
from repro.catalog.relation import Relation
from repro.cluster import AutoscalerSpec, ClusterEventSpec, ClusterSpec
from repro.cluster.membership import ClusterMembership
from repro.cluster.rebalance import Rebalancer
from repro.cluster.runtime import ElasticCluster
from repro.serving import AdmissionPolicy, ArrivalSpec, WorkloadSpec
from repro.serving.substrate import SharedSubstrate
from repro.serving.trace import (NodeDraining, NodeJoined, NodeLeft,
                                 QueryFinished, QueryStarted,
                                 RebalanceCompleted, read_events)
from repro.sim.machine import MachineConfig


# ---------------------------------------------------------------------------
# membership


def test_membership_join_activates_next_prefix_ids():
    m = ClusterMembership(MachineConfig(nodes=6), initial=2)
    assert m.planning_nodes() == (0, 1)
    assert m.join(3) == (2, 3, 4)
    assert m.member_count == 5
    assert m.planning_count == 5
    assert m.is_member(4) and not m.is_member(5)


def test_membership_drain_shrinks_planning_before_membership():
    m = ClusterMembership(MachineConfig(nodes=4), initial=4)
    assert m.begin_drain(2) == (2, 3)
    assert m.planning_count == 2
    assert m.member_count == 4          # still members: finishing work
    assert m.is_draining(3) and m.is_draining(2) and not m.is_draining(1)
    assert m.complete_drain(2) == (2, 3)
    assert m.member_count == 2
    assert m.draining_count == 0


def test_membership_transition_errors():
    m = ClusterMembership(MachineConfig(nodes=3), initial=2)
    with pytest.raises(ValueError):
        m.join(2)                        # would exceed the machine
    with pytest.raises(ValueError):
        m.begin_drain(2)                 # at least one node must remain
    m.begin_drain(1)
    with pytest.raises(RuntimeError):
        m.join(1)                        # no joins mid-drain
    with pytest.raises(ValueError):
        m.complete_drain(2)              # only one node draining


def test_membership_version_bumps_on_every_transition():
    m = ClusterMembership(MachineConfig(nodes=4), initial=1)
    versions = [m.version]
    m.join(2)
    versions.append(m.version)
    m.begin_drain(1)
    versions.append(m.version)
    m.complete_drain(1)
    versions.append(m.version)
    assert versions == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# spec validation and derived shape


def test_cluster_spec_static_by_default():
    spec = ClusterSpec()
    assert spec.static and not spec.elastic
    assert spec.active_at_start == spec.machines.nodes
    assert spec.reachable_sizes() == (spec.machines.nodes,)
    assert spec.machines_at(spec.machines.nodes) is spec.machines


def test_cluster_spec_partial_initial_set_is_elastic():
    spec = ClusterSpec(machines=MachineConfig(nodes=4), initial_nodes=2)
    assert spec.elastic
    assert spec.active_at_start == 2


def test_cluster_timeline_orders_by_time_then_declaration():
    spec = ClusterSpec(
        machines=MachineConfig(nodes=8),
        initial_nodes=2,
        events=(
            ClusterEventSpec(at=2.0, action="leave", nodes=1),
            ClusterEventSpec(at=1.0, action="join", nodes=2),
            ClusterEventSpec(at=1.0, action="join", nodes=1),
        ),
    )
    assert [(e.at, e.action, e.nodes) for e in spec.timeline()] == [
        (1.0, "join", 2), (1.0, "join", 1), (2.0, "leave", 1),
    ]
    assert spec.size_bounds() == (2, 5)
    assert spec.reachable_sizes() == (2, 3, 4, 5)


def test_cluster_timeline_out_of_bounds_rejected():
    with pytest.raises(ValueError, match="timeline"):
        ClusterSpec(
            machines=MachineConfig(nodes=2),
            events=(ClusterEventSpec(at=1.0, action="join", nodes=1),),
        )
    with pytest.raises(ValueError, match="timeline"):
        ClusterSpec(
            machines=MachineConfig(nodes=2),
            initial_nodes=1,
            events=(ClusterEventSpec(at=1.0, action="leave", nodes=1),),
        )


def test_autoscaler_bounds_checked_against_machine():
    with pytest.raises(ValueError, match="min_nodes"):
        ClusterSpec(machines=MachineConfig(nodes=2),
                    autoscaler=AutoscalerSpec(min_nodes=3))
    with pytest.raises(ValueError, match="max_nodes"):
        ClusterSpec(machines=MachineConfig(nodes=2),
                    autoscaler=AutoscalerSpec(max_nodes=4))
    with pytest.raises(ValueError, match="scale_in_utilization"):
        AutoscalerSpec(target_utilization=0.5, scale_in_utilization=0.5)


def test_single_mode_rejects_elastic_cluster():
    with pytest.raises(ValueError, match="single"):
        ScenarioSpec(
            mode="single",
            cluster=ClusterSpec(machines=MachineConfig(nodes=2),
                                initial_nodes=1),
        )


# ---------------------------------------------------------------------------
# serde: identity and indexed error paths


def test_cluster_spec_round_trips_through_codec():
    spec = ClusterSpec(
        machines=MachineConfig(nodes=4, processors_per_node=2),
        initial_nodes=2,
        events=(ClusterEventSpec(at=0.5, action="join", nodes=2),
                ClusterEventSpec(at=2.0, action="leave", nodes=1)),
        autoscaler=AutoscalerSpec(target_utilization=0.9, cooldown=0.5,
                                  max_nodes=4),
    )
    assert decode(ClusterSpec, encode(spec), path="$") == spec


def test_example_elastic_surge_is_canonical_and_elastic():
    text = pathlib.Path("examples/scenarios/elastic_surge.json").read_text()
    spec = ScenarioSpec.from_json(text)
    assert spec.to_json() == text        # serialization fixed point
    assert spec.cluster.elastic
    assert spec.cluster.autoscaler is not None
    assert spec.cluster.active_at_start < spec.cluster.machines.nodes


def test_spec_error_path_includes_tuple_index():
    payload = {"cluster": {"events": [
        {"at": 0.0, "action": "join", "nodes": 1},
        {"at": 1.0, "action": "explode", "nodes": 1},
    ]}}
    with pytest.raises(SpecError, match=r"\$\.cluster\.events\[1\]"):
        ScenarioSpec.from_dict(payload)


def test_spec_error_path_indexes_unknown_element_keys():
    payload = {"cluster": {"events": [{"at": 0.0, "frobnicate": 1}]}}
    with pytest.raises(SpecError, match=r"\$\.cluster\.events\[0\]"):
        ScenarioSpec.from_dict(payload)


# ---------------------------------------------------------------------------
# autoscaler cooldown: boundary instants are allowed


class _FakeCoordinator:
    """Just enough coordinator for ElasticCluster's control loops."""

    def __init__(self, substrate, demand: int, mpl_cap: int = 4):
        self.substrate = substrate
        self.running = {i: object() for i in range(demand)}
        self.pending = []
        self.workload_done = False
        self._mpl_cap = mpl_cap
        self.change_times = []

    def mpl_cap(self) -> int:
        return self._mpl_cap

    def on_cluster_changed(self) -> None:
        self.change_times.append(self.substrate.env.now)


def _elastic(substrate, spec, demand, mpl_cap=4):
    coordinator = _FakeCoordinator(substrate, demand, mpl_cap)
    # relations=() makes every rebalance instantaneous, so membership
    # changes land exactly at the autoscaler's decision instants.
    return coordinator, ElasticCluster(coordinator, spec, relations=())


def test_autoscaler_cooldown_boundary_instant_allows_decision():
    # interval=0.25, cooldown=0.5: both exact binary floats, so the
    # second decision's tick lands *exactly* cooldown after the first.
    substrate = SharedSubstrate(MachineConfig(nodes=4,
                                              processors_per_node=1))
    spec = ClusterSpec(
        machines=substrate.config, initial_nodes=1,
        autoscaler=AutoscalerSpec(target_utilization=0.75,
                                  scale_in_utilization=0.25,
                                  interval=0.25, cooldown=0.5),
    )
    coordinator, cluster = _elastic(substrate, spec, demand=8)
    substrate.env.run(until=1.6)
    # decisions at t=0.25, then exactly t=0.75 (0.75-0.25 == cooldown:
    # allowed), then t=1.25 — exclusive cooldown would give 0.25/1.0.
    assert coordinator.change_times == [0.25, 0.75, 1.25]
    assert cluster.joins == 3
    assert cluster.membership.planning_count == 4
    assert cluster.peak_nodes == 4


def test_autoscaler_within_cooldown_defers_decision():
    # cooldown=0.75 is three ticks: the tick at 0.5 (0.25 after the
    # first decision) must skip, the tick at 1.0 fires.
    substrate = SharedSubstrate(MachineConfig(nodes=3,
                                              processors_per_node=1))
    spec = ClusterSpec(
        machines=substrate.config, initial_nodes=1,
        autoscaler=AutoscalerSpec(target_utilization=0.75,
                                  scale_in_utilization=0.25,
                                  interval=0.25, cooldown=0.75),
    )
    coordinator, _cluster = _elastic(substrate, spec, demand=8, mpl_cap=3)
    substrate.env.run(until=1.1)
    assert coordinator.change_times == [0.25, 1.0]


def test_autoscaler_scales_in_idle_cluster_to_min_nodes():
    substrate = SharedSubstrate(MachineConfig(nodes=4,
                                              processors_per_node=1))
    spec = ClusterSpec(
        machines=substrate.config, initial_nodes=4,
        autoscaler=AutoscalerSpec(target_utilization=0.75,
                                  scale_in_utilization=0.25,
                                  interval=0.25, cooldown=0.5,
                                  min_nodes=2),
    )
    coordinator, cluster = _elastic(substrate, spec, demand=0)
    substrate.env.run(until=1.6)
    # Scale-in notifies twice per transition (drain begins: planning
    # shrinks; drain completes: the node leaves) — instantaneous here,
    # so both land at the decision instant.  Cooldown is again boundary
    # inclusive: 0.75 - 0.25 == cooldown.
    assert coordinator.change_times == [0.25, 0.25, 0.75, 0.75]
    assert cluster.leaves == 2
    assert cluster.membership.planning_count == 2
    assert cluster.low_nodes == 2


def test_autoscaler_stops_when_workload_done():
    substrate = SharedSubstrate(MachineConfig(nodes=4,
                                              processors_per_node=1))
    spec = ClusterSpec(
        machines=substrate.config, initial_nodes=1,
        autoscaler=AutoscalerSpec(interval=0.25),
    )
    coordinator, cluster = _elastic(substrate, spec, demand=8)
    coordinator.workload_done = True
    substrate.env.run(until=2.0)
    assert coordinator.change_times == []
    assert cluster.joins == 0


# ---------------------------------------------------------------------------
# rebalance: minimal movement and byte conservation


def test_rebalance_moves_ship_only_share_deltas():
    relation = Relation("R", cardinality=9000, tuple_size=100)
    old = place_relation(relation, (0, 1), disks_per_node=2)
    new = place_relation(relation, (0, 1, 2), disks_per_node=2)
    moves = rebalance_moves(old, new)
    assert all(move.dst_node == 2 for move in moves)   # only the joiner fills
    shipped = sum(move.tuples for move in moves)
    # Exactly the joiner's new share travels — never a full re-send.
    assert shipped == new.tuples_per_node[new.home.index(2)]
    assert shipped < relation.cardinality
    assert sum(move.nbytes for move in moves) == shipped * relation.tuple_size


def test_rebalancer_bytes_shipped_equals_partition_bytes_moved():
    substrate = SharedSubstrate(MachineConfig(nodes=4,
                                              processors_per_node=1))
    relations = (Relation("R", cardinality=8000, tuple_size=100),
                 Relation("S", cardinality=3000, tuple_size=208))
    rebalancer = Rebalancer(substrate, relations)
    moves = rebalancer.plan_moves((0, 1), (0, 1, 2, 3))
    assert moves
    substrate.env.process(rebalancer.execute(moves), name="rebalance")
    substrate.env.run()
    expected = sum(move.nbytes for move in moves)
    # crossed the overlay
    assert rebalancer.network.bytes_for("rebalance") == expected
    assert rebalancer.total_bytes == expected          # and was accounted
    assert rebalancer.total_moves == len(moves)
    assert rebalancer.rebalances == 1


def test_rebalance_round_trip_is_conservative():
    # Growing 2->4 then shrinking 4->2 moves the same bytes each way.
    relation = Relation("R", cardinality=10_000, tuple_size=96)
    two = place_relation(relation, (0, 1), disks_per_node=2)
    four = place_relation(relation, (0, 1, 2, 3), disks_per_node=2)
    out = sum(m.nbytes for m in rebalance_moves(two, four))
    back = sum(m.nbytes for m in rebalance_moves(four, two))
    assert out == back > 0


# ---------------------------------------------------------------------------
# end-to-end: timeline scenario through the façade


def _timeline_scenario(**cluster_kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        cluster=ClusterSpec(
            machines=MachineConfig(nodes=2, processors_per_node=2),
            **cluster_kwargs,
        ),
        plans=PlanSpec(kind="pipeline_chain", base_tuples=2000,
                       chain_joins=2),
        workload=WorkloadSpec(
            queries=4,
            arrival=ArrivalSpec(kind="poisson", rate=50.0),
            policy=AdmissionPolicy(max_multiprogramming=4),
            seed=7,
        ),
    )


def test_scale_in_waits_for_queries_spanning_the_draining_node(tmp_path):
    scenario = _timeline_scenario(
        events=(ClusterEventSpec(at=0.2, action="leave", nodes=1),),
    )
    record = tmp_path / "drain.jsonl"      # pathlib.Path accepted as-is
    result = run(scenario, record=record)
    events = read_events(str(record))
    draining = [e for e in events if isinstance(e, NodeDraining)]
    left = [e for e in events if isinstance(e, NodeLeft)]
    assert [e.node_id for e in draining] == [1]
    assert [e.node_id for e in left] == [1]
    assert left[0].time > draining[0].time
    # Every query started before the drain was planned across both
    # nodes; the node must not leave until each of them has finished.
    started_before = {
        e.query_id for e in events
        if isinstance(e, QueryStarted) and e.time <= draining[0].time
    }
    assert started_before                  # the drain found work in flight
    finishes = {e.query_id: e.time for e in events
                if isinstance(e, QueryFinished)}
    assert left[0].time >= max(finishes[q] for q in started_before)
    metrics = result.metrics
    assert metrics.completed == 4
    assert metrics.node_leaves == 1
    assert metrics.low_nodes == 1


def test_rebalance_bytes_in_metrics_match_trace_and_moves(tmp_path):
    scenario = _timeline_scenario(
        initial_nodes=1,
        events=(ClusterEventSpec(at=0.1, action="join", nodes=1),),
    )
    record = tmp_path / "join.jsonl"
    result = run(scenario, record=record)
    metrics = result.metrics
    assert metrics.node_joins == 1
    assert metrics.rebalances == 1
    assert metrics.rebalance_bytes > 0
    rebalances = [e for e in read_events(str(record))
                  if isinstance(e, RebalanceCompleted)]
    assert sum(e.bytes_moved for e in rebalances) == metrics.rebalance_bytes
    joined = [e for e in read_events(str(record))
              if isinstance(e, NodeJoined)]
    assert [e.node_id for e in joined] == [1]
    cluster = metrics.cluster_summary()
    assert cluster is not None
    assert cluster["load_gained_processors"] == 2
    assert cluster["rebalance_bytes"] == metrics.rebalance_bytes


def test_static_cluster_digest_has_no_cluster_section():
    scenario = _timeline_scenario()
    result = run(scenario)
    assert result.metrics.cluster_summary() is None
    assert "cluster" not in result.metrics.summary()


def test_explicit_plans_rejected_for_elastic_clusters():
    scenario = _timeline_scenario(initial_nodes=1)
    with pytest.raises(ValueError, match="plan bank"):
        run(scenario, plans=(object(),))


# ---------------------------------------------------------------------------
# RunResult JSON and the CLI --json surface


def test_run_result_to_json_round_trips_the_scenario(tmp_path):
    scenario = _timeline_scenario(
        events=(ClusterEventSpec(at=0.2, action="leave", nodes=1),),
    )
    result = run(scenario)
    document = json.loads(result.to_json())
    assert ScenarioSpec.from_dict(document["scenario"]) == scenario
    workload = document["workload"]
    assert workload["metrics"]["completed"] == 4
    assert workload["metrics"]["cluster"]["node_leaves"] == 1


def test_cli_json_output_writes_lossless_document(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario = _timeline_scenario(
        initial_nodes=1,
        events=(ClusterEventSpec(at=0.1, action="join", nodes=1),),
    )
    scenario_path.write_text(scenario.to_json())
    out_path = tmp_path / "result.json"
    assert cli_main([str(scenario_path), "--json", str(out_path)]) == 0
    human = capsys.readouterr().out
    assert "cluster: +1/-0 nodes" in human
    document = json.loads(out_path.read_text())
    assert ScenarioSpec.from_dict(document["scenario"]) == scenario
    assert document["workload"]["metrics"]["cluster"]["node_joins"] == 1


def test_cli_json_dash_prints_document_only(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(_timeline_scenario().to_json())
    assert cli_main([str(scenario_path), "--json", "-"]) == 0
    out = capsys.readouterr().out
    document = json.loads(out)             # the whole stdout is the JSON
    assert document["workload"]["metrics"]["completed"] == 4
