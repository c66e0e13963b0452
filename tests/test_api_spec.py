"""Scenario-spec tests: lossless round trips, strict decoding, façade
equivalence.

The API's two contracts, pinned here:

* **Losslessness** — ``ScenarioSpec.from_json(spec.to_json()) == spec``
  for arbitrarily nested non-default values, and every shipped example
  scenario is a canonical fixed point of the codec.
* **Equivalence** — ``repro.run(scenario)`` produces *byte-identical*
  metrics to the legacy hand-wired ``WorkloadDriver`` /
  ``QueryExecutor`` paths it subsumes.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import repro
from repro.api import (
    ClusterSpec,
    PlanSpec,
    RunResult,
    ScenarioSpec,
    SpecError,
    SweepSpec,
    build_plans,
    get_path,
    replace_path,
)
from repro.api import run as run_scenario
from repro.api import run_query as run_scenario_query
from repro.catalog.skew import SkewSpec
from repro.engine import QueryExecutor
from repro.engine.params import ExecutionParams
from repro.experiments.config import scaled_execution_params
from repro.serving import (
    BATCH,
    INTERACTIVE,
    AdmissionPolicy,
    ArrivalSpec,
    ServiceClass,
    WorkloadSpec,
)
from repro.serving.driver import WorkloadDriver
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkParams
from repro.workloads import pipeline_chain_scenario, two_node_join_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def _rich_scenario() -> ScenarioSpec:
    """A spec exercising non-default values at every nesting level."""
    interactive = dataclasses.replace(INTERACTIVE, latency_slo=0.25)
    batch = dataclasses.replace(BATCH, queue_timeout=0.5)
    params = scaled_execution_params(
        scale=0.02, skew=SkewSpec(redistribution=0.7), seed=11,
        cpu_discipline="priority", disk_discipline="fair",
        cross_steal_policy="best",
    )
    params = dataclasses.replace(
        params,
        network=NetworkParams(transmission_delay=1e-5, bandwidth=8e6),
        net_discipline="priority",
    )
    return ScenarioSpec(
        cluster=MachineConfig(nodes=2, processors_per_node=3),
        params=params,
        workload=WorkloadSpec(
            queries=9,
            arrival=ArrivalSpec(kind="bursty", rate=120.0, burst_size=5.0,
                                burst_speedup=12.0),
            strategy="FP",
            policy=AdmissionPolicy(max_multiprogramming=3,
                                   queue_timeout=2.5,
                                   deadline_shedding=True),
            classes=((interactive, 1.0), (batch, 3.0)),
            seed=5,
        ),
        plans=PlanSpec(kind="io_heavy", base_tuples=900),
        mode="serving",
        label="rich",
    )


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_rich_nested_spec_round_trips(self):
        spec = _rich_scenario()
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_preserves_nested_leaf_values(self):
        spec = ScenarioSpec.from_json(_rich_scenario().to_json())
        assert spec.params.network.bandwidth == 8e6
        assert spec.params.skew.redistribution == 0.7
        assert spec.workload.classes[0][0].latency_slo == 0.25
        assert spec.workload.classes[1][1] == 3.0
        assert spec.workload.policy.queue_timeout == 2.5

    def test_every_example_scenario_round_trips(self):
        paths = sorted(SCENARIO_DIR.glob("*.json"))
        assert paths, "no example scenarios shipped"
        for path in paths:
            text = path.read_text()
            spec = ScenarioSpec.from_json(text)
            assert ScenarioSpec.from_json(spec.to_json()) == spec, path.name
            # The shipped files are canonical: decode -> encode is identity.
            assert spec.to_json() == text, path.name

    def test_floats_survive_exactly(self):
        spec = replace_path(ScenarioSpec(), "params.steal_cooldown", 0.1 + 0.2)
        decoded = ScenarioSpec.from_json(spec.to_json())
        assert decoded.params.steal_cooldown == spec.params.steal_cooldown


class TestStrictDecoding:
    def test_unknown_top_level_key(self):
        data = ScenarioSpec().to_dict()
        data["extra"] = 1
        with pytest.raises(SpecError, match="unknown key.*extra"):
            ScenarioSpec.from_dict(data)

    def test_unknown_nested_key_names_path(self):
        data = ScenarioSpec().to_dict()
        data["workload"]["arrival"]["ratee"] = 10.0
        with pytest.raises(SpecError, match=r"\$\.workload\.arrival.*ratee"):
            ScenarioSpec.from_dict(data)

    def test_wrong_scalar_type(self):
        data = ScenarioSpec().to_dict()
        data["params"]["batch_size"] = "lots"
        with pytest.raises(SpecError, match=r"\$\.params\.batch_size"):
            ScenarioSpec.from_dict(data)

    def test_null_in_non_optional_field(self):
        data = ScenarioSpec().to_dict()
        data["workload"]["queries"] = None
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(data)

    def test_wrong_tuple_arity(self):
        spec = _rich_scenario()
        data = spec.to_dict()
        data["workload"]["classes"][0].append(1.0)
        with pytest.raises(SpecError, match="expected 2 entries"):
            ScenarioSpec.from_dict(data)

    def test_validation_runs_on_decode(self):
        data = ScenarioSpec().to_dict()
        data["workload"]["arrival"]["rate"] = -1.0
        with pytest.raises(ValueError, match="rate must be positive"):
            ScenarioSpec.from_dict(data)

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            ScenarioSpec.from_json("{not json")

    @pytest.mark.parametrize("knob", ["kernel", "event_queue",
                                      "charge_quantum", "clock_tick"])
    def test_retired_kernel_knobs_fail_at_load(self, knob):
        """There is one kernel configuration: a scenario or sweep still
        naming a retired knob is a load error, not a silent default."""
        data = ScenarioSpec().to_dict()
        data["params"][knob] = None
        with pytest.raises(SpecError, match=rf"\$\.params: .*'{knob}'"):
            ScenarioSpec.from_dict(data)
        sweep = {"base": ScenarioSpec().to_dict(),
                 "axes": {f"params.{knob}": [None]}}
        with pytest.raises(SpecError,
                           match=rf"no field '{knob}' \(path 'params\.{knob}'"):
            SweepSpec.from_dict(sweep)


#: (dotted path, a value it once took): fields that left the spec tree
#: because no run read them, or because a second field already held
#: their physical fact (ARCHITECTURE "Why each spec field stays").
DELETED_FIELDS = (
    ("params.skew.tuple_placement", 0.5),
    ("params.skew.attribute_value", 0.5),
    ("params.skew.selectivity", 0.5),
    ("params.skew.join_product", 0.5),
    ("params.cost.mips", 40e6),
    ("params.disk.page_size", 8192),
    ("params.network.message_unit", 8192),
    ("workload.arrival.think_time", 0.0),
    ("workload.policy.memory_headroom", 0.8),
    ("cluster.autoscaler.max_nodes", 1),
    ("trace.limit", 5),
    ("trace.generate.diurnal_amplitude", 0.6),
    ("trace.generate.flash_crowds", 1),
    ("trace.generate.session_mean_queries", 3.0),
    ("trace.generate.session_tail", 1.6),
    ("trace.generate.plan_affinity", 0.5),
    ("trace.generate.interactive_fraction", 0.5),
    ("trace.generate.strategy", "DP"),
)


class TestDeletedFields:
    @pytest.mark.parametrize("path,value", DELETED_FIELDS,
                             ids=[path for path, _value in DELETED_FIELDS])
    def test_deleted_field_is_a_spec_error_naming_its_path(self, path,
                                                           value):
        data = ScenarioSpec().to_dict()
        data["trace"] = {"generate": {}}
        data["cluster"]["autoscaler"] = {}
        *parents, leaf = path.split(".")
        node = data
        for key in parents:
            node = node[key]
        node[leaf] = value
        with pytest.raises(SpecError) as raised:
            ScenarioSpec.from_dict(data)
        parent = ".".join(["$", *parents])
        assert f"{parent}: unknown key(s) ['{leaf}']" in str(raised.value)

    def test_one_cpu_speed_and_one_page_size(self):
        # The machine's MIPS prices every CPU charge and its page size
        # both divides the relations and sets each disk transfer, so
        # each moves the run (the default reads 0.10584624999999993 s).
        text = (SCENARIO_DIR / "single_query.json").read_text()
        spec = ScenarioSpec.from_json(text)

        def response(path, value):
            return run_scenario(replace_path(spec, path, value)) \
                .execution.response_time

        assert response("cluster.machines.mips", 2e7) == 0.1608016666666663
        assert (response("cluster.machines.page_size", 4096)
                == 0.10255125000000002)


class TestSpecValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ScenarioSpec(mode="batch")

    def test_unknown_plan_kind(self):
        with pytest.raises(ValueError, match="unknown plan kind"):
            PlanSpec(kind="mystery")

    def test_workload_strategy_validated(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            WorkloadSpec(strategy="QP")

    def test_arrival_rate_validated_for_closed_loop_too(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            ArrivalSpec(kind="closed", rate=0.0)

    def test_class_fractions_must_be_finite(self):
        with pytest.raises(ValueError, match="positive and finite"):
            WorkloadSpec(classes=((ServiceClass("x"), float("nan")),))

    def test_replace_path_reruns_validators(self):
        with pytest.raises(ValueError, match="batch_size"):
            replace_path(ScenarioSpec(), "params.batch_size", 0)

    def test_path_helpers(self):
        spec = replace_path(ScenarioSpec(), "params.cpu_discipline", "fair")
        assert get_path(spec, "params.cpu_discipline") == "fair"
        with pytest.raises(SpecError, match="no field"):
            replace_path(spec, "params.nonsense", 1)
        with pytest.raises(SpecError, match="no field"):
            get_path(spec, "workload.arrival.nope")


class TestPlanSpecBuild:
    def test_two_node_requires_two_nodes(self):
        spec = PlanSpec(kind="two_node")
        with pytest.raises(ValueError, match="2-node cluster"):
            spec.build(MachineConfig(nodes=4, processors_per_node=2))

    def test_build_matches_scenario_factories(self):
        cluster = MachineConfig(nodes=2, processors_per_node=2)
        plans = PlanSpec(kind="pipeline_chain", base_tuples=700).build(cluster)
        expected, _config = pipeline_chain_scenario(
            nodes=2, processors_per_node=2, base_tuples=700
        )
        assert len(plans) == 1
        assert plans[0].label == expected.label

    def test_build_plans_memoized(self):
        scenario = ScenarioSpec(
            cluster=MachineConfig(nodes=2, processors_per_node=2),
            plans=PlanSpec(kind="pipeline_chain", base_tuples=600),
        )
        assert build_plans(scenario) is build_plans(scenario)

    def test_workload_mix_respects_plan_count(self):
        cluster = MachineConfig(nodes=2, processors_per_node=2)
        spec = PlanSpec(kind="workload_mix", plan_count=2,
                        workload_queries=3, scale=0.01, seed=4)
        assert len(spec.build(cluster)) == 2

    def test_cluster_machine_knobs_reach_plan_compilation(self):
        # A non-default page size in the scenario's cluster must be the
        # page size the plans compile against, not the factory default.
        cluster = MachineConfig(nodes=2, processors_per_node=2,
                                page_size=4096)
        plans = PlanSpec(kind="pipeline_chain", base_tuples=700).build(cluster)
        assert plans[0].placements["B0"].page_size == 4096
        plans = PlanSpec(kind="two_node").build(cluster)
        assert plans[0].placements["R"].page_size == 4096


def _serving_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        cluster=MachineConfig(nodes=2, processors_per_node=2),
        params=scaled_execution_params(
            skew=SkewSpec(redistribution=0.8), seed=7
        ),
        workload=WorkloadSpec(
            queries=6,
            arrival=ArrivalSpec(kind="closed", population=3),
            policy=AdmissionPolicy(max_multiprogramming=3),
            classes=((INTERACTIVE, 1.0), (BATCH, 2.0)),
            seed=13,
        ),
        plans=PlanSpec(kind="pipeline_chain", base_tuples=800),
    )


class TestFacadeEquivalence:
    def test_serving_run_matches_legacy_driver_byte_for_byte(self):
        scenario = _serving_scenario()
        facade = run_scenario(scenario)
        plan, config = pipeline_chain_scenario(
            nodes=2, processors_per_node=2, base_tuples=800
        )
        legacy = WorkloadDriver(
            [plan], config, scenario.workload, scenario.params
        ).run()
        assert repr(facade.metrics.summary()) == repr(legacy.metrics.summary())

    def test_single_run_matches_query_executor(self):
        scenario = ScenarioSpec(
            cluster=MachineConfig(nodes=2, processors_per_node=2),
            params=scaled_execution_params(seed=3),
            workload=WorkloadSpec(queries=1, strategy="FP"),
            plans=PlanSpec(kind="two_node", r_tuples=1500, s_tuples=3000),
            mode="single",
        )
        facade = run_scenario(scenario)
        plan, config = two_node_join_scenario(
            r_tuples=1500, s_tuples=3000, processors_per_node=2
        )
        legacy = QueryExecutor(
            plan, config, strategy="FP", params=scenario.params
        ).run()
        assert facade.execution.response_time == legacy.response_time
        assert facade.metrics.activations_processed == \
            legacy.metrics.activations_processed

    def test_run_query_facade_and_top_level_entry_points(self):
        scenario = ScenarioSpec(
            cluster=MachineConfig(nodes=2, processors_per_node=2),
            params=scaled_execution_params(seed=3),
            workload=WorkloadSpec(queries=1),
            plans=PlanSpec(kind="pipeline_chain", base_tuples=600),
        )
        direct = run_scenario_query(scenario)
        via_repro = repro.run_query(scenario)
        assert direct.response_time == via_repro.response_time
        with pytest.raises(TypeError, match="no machine config"):
            repro.run_query(scenario, MachineConfig())
        with pytest.raises(TypeError, match="requires a MachineConfig"):
            repro.run_query(object())

    def test_explicit_plans_override(self):
        scenario = _serving_scenario()
        plan, _config = pipeline_chain_scenario(
            nodes=2, processors_per_node=2, base_tuples=800
        )
        overridden = run_scenario(scenario, plans=[plan])
        declared = run_scenario(scenario)
        assert repr(overridden.metrics.summary()) == \
            repr(declared.metrics.summary())

    def test_run_result_shape(self):
        result = run_scenario(_serving_scenario())
        assert isinstance(result, RunResult)
        assert result.execution is None
        assert result.workload is not None
        assert "workload [" in result.summary()

    def test_deterministic_across_runs(self):
        scenario = _serving_scenario()
        first = run_scenario(scenario).metrics.summary()
        second = run_scenario(scenario).metrics.summary()
        assert repr(first) == repr(second)


class TestDefaultParamsStayDefault:
    def test_scenario_defaults_equal_engine_defaults(self):
        # A default ScenarioSpec must not drift from the engine's own
        # defaults — otherwise "empty scenario" silently means something.
        assert ScenarioSpec().params == ExecutionParams()
        assert ScenarioSpec().cluster == ClusterSpec()
        assert ScenarioSpec().cluster.machines == MachineConfig()
        assert ScenarioSpec().workload == WorkloadSpec()

    def test_bare_machine_config_coerces_to_static_cluster(self):
        # Back-compat: cluster=MachineConfig(...) wraps into ClusterSpec.
        spec = ScenarioSpec(cluster=MachineConfig(nodes=2,
                                                  processors_per_node=2))
        assert isinstance(spec.cluster, ClusterSpec)
        assert spec.cluster.static
        assert spec.cluster.machines.nodes == 2

    def test_encode_rejects_exotic_values(self):
        from repro.api.serde import encode

        with pytest.raises(SpecError, match="cannot serialize"):
            encode(object())

    def test_pep604_optional_fields_decode(self):
        # Future knobs may use `X | None` instead of Optional[X]; the
        # generic codec must treat both union spellings identically.
        from repro.api.serde import decode, encode

        @dataclasses.dataclass(frozen=True)
        class Knobs:
            cap: float | None = None
            name: "str | None" = None

        assert decode(Knobs, {"cap": 2.5, "name": "x"}) == Knobs(2.5, "x")
        assert decode(Knobs, encode(Knobs())) == Knobs()

    def test_summary_json_encodable(self):
        result = run_scenario(_serving_scenario())
        json.dumps(result.metrics.summary(), default=list)
