"""Trace subsystem: event codec, recording, and record→replay fidelity.

The load-bearing properties:

* **arrival exactness** — open-loop submissions land at the *exact*
  sampled instants (the absolute-timestamp bugfix: relative timeouts
  accumulated float error, so recorded arrivals drifted from the
  schedule);
* **per-index purity** — a query's plan and service class are pure
  functions of ``(spec.seed, index)``, independent of completion
  interleaving (the lazy-shared-stream bugfix);
* **codec losslessness** — every event type survives
  ``decode(encode(e)) == e``, through the gzip JSON-lines sink included;
* **record→replay byte-identity** — replaying a run's own trace yields a
  byte-identical ``WorkloadMetrics.summary()`` for open-loop,
  closed-loop and shed-heavy runs, with recording itself perturbing
  nothing.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Relation
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
from repro.serving.arrivals import sample_arrival_times
from repro.serving.coordinator import MultiQueryCoordinator
from repro.serving.driver import WorkloadDriver
from repro.serving.trace import (
    BrokerImbalance,
    JsonLinesLogger,
    MemoryLogger,
    QueryAdmitted,
    QueryFinished,
    QueryShedEvent,
    QueryStarted,
    QuerySubmitted,
    RunStarted,
    StealRound,
    StealTransfer,
    Trace,
    TraceQuery,
    decode_event,
    encode_event,
    read_events,
)
from repro.sim import MachineConfig, RandomStreams
from repro.sim.core import Environment, SimulationError


def small_join_plan(config, r=600, s=1200, label="serve"):
    sel = 1.0 / r
    graph = QueryGraph(
        [Relation("R", r), Relation("S", s)], [JoinEdge("R", "S", sel)]
    )
    tree = JoinNode(BaseNode(graph.relation("R")), BaseNode(graph.relation("S")),
                    sel)
    return compile_plan(graph, tree, config, label=label)


def plan_population(config, count=3):
    from repro.optimizer import best_bushy_trees
    from repro.query import QueryGenerator, QueryGeneratorConfig

    generator = QueryGenerator(
        RandomStreams(7),
        QueryGeneratorConfig(relations_per_query=3, scale=0.002),
    )
    plans = []
    for index in range(count):
        graph = generator.generate(index)
        tree = best_bushy_trees(graph, k=1)[0]
        plans.append(compile_plan(graph, tree, config, label=f"g{index}"))
    return plans


def summary_bytes(metrics):
    return json.dumps(metrics.summary(), sort_keys=True)


# -- kernel primitive --------------------------------------------------------


class TestTimeoutAt:
    def test_fires_at_exact_absolute_instant(self):
        env = Environment()
        seen = []

        def proc():
            yield env.timeout_at(0.1 + 0.2)  # the classic 0.30000000000000004
            seen.append(env.now)

        env.process(proc())
        env.run()
        assert seen == [0.1 + 0.2]

    def test_rejects_past_instants(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            env.timeout_at(0.5)

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()


# -- bugfix regressions ------------------------------------------------------


class TestDriverDeterminismContract:
    def test_recorded_arrivals_equal_sampled_schedule(self):
        # Bugfix 1: relative timeouts accumulated float error, so the
        # recorded arrival_time diverged from sample_arrival_times in the
        # low bits.  Absolute scheduling makes them equal, bit for bit.
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = small_join_plan(config)
        spec = WorkloadSpec(
            queries=12, arrival=ArrivalSpec(kind="poisson", rate=100.0),
            seed=13,
        )
        sampled = sample_arrival_times(
            spec.arrival, spec.queries,
            RandomStreams(WorkloadDriver(plan, config, spec).streams.master_seed),
        )
        result = WorkloadDriver(plan, config, spec).run()
        recorded = sorted(
            (c.query_id, c.arrival_time) for c in result.metrics.completions
        )
        assert [t for _qid, t in recorded] == sampled

    def test_plan_and_class_choice_pure_in_seed_and_index(self):
        # Bugfix 2: _plan_for/_class_for drew lazily from shared streams,
        # so a query's plan depended on when it was generated.  Now they
        # are pure in (seed, index): calling them in any order, any
        # number of times, gives the same answer.
        config = MachineConfig(nodes=2, processors_per_node=2)
        plans = plan_population(config)
        spec = WorkloadSpec(
            queries=6, seed=5,
            classes=((INTERACTIVE, 1.0), (BATCH, 3.0)),
        )
        driver = WorkloadDriver(plans, config, spec)
        forward = [(driver._plan_index_for(i), driver._class_for(i).name)
                   for i in range(6)]
        backward = [(driver._plan_index_for(i), driver._class_for(i).name)
                    for i in reversed(range(6))]
        assert forward == list(reversed(backward))
        fresh = WorkloadDriver(plans, config, spec)
        assert forward == [
            (fresh._plan_index_for(i), fresh._class_for(i).name)
            for i in range(6)
        ]

    def test_open_and_closed_loop_agree_on_plan_assignment(self):
        # The same (seed, index) must map to the same plan under either
        # arrival regime — the property the old shared-stream draws broke
        # (closed-loop completion order perturbed the stream cursor).
        config = MachineConfig(nodes=2, processors_per_node=2)
        plans = plan_population(config)
        base = WorkloadSpec(queries=6, seed=5)
        open_spec = dataclasses.replace(
            base, arrival=ArrivalSpec(kind="poisson", rate=50.0)
        )
        closed_spec = dataclasses.replace(
            base, arrival=ArrivalSpec(kind="closed", population=3),
            policy=AdmissionPolicy(max_multiprogramming=3),
        )
        by_open = {
            c.query_id: c.plan_label
            for c in WorkloadDriver(plans, config, open_spec)
            .run().metrics.completions
        }
        by_closed = {
            c.query_id: c.plan_label
            for c in WorkloadDriver(plans, config, closed_spec)
            .run().metrics.completions
        }
        assert by_open == by_closed

    def test_duplicate_class_names_rejected(self):
        # Bugfix 3: metrics key per-class views by name, so two distinct
        # classes sharing one would merge silently.
        twin = ServiceClass("interactive", weight=2.0, priority=3)
        with pytest.raises(ValueError, match="duplicate service-class name"):
            WorkloadSpec(classes=((INTERACTIVE, 1.0), (twin, 1.0)))

    def test_distinct_class_names_still_accepted(self):
        spec = WorkloadSpec(classes=((INTERACTIVE, 1.0), (BATCH, 1.0)))
        assert len(spec.classes) == 2


# -- event codec -------------------------------------------------------------


EVENT_EXAMPLES = [
    RunStarted(time=0.0, queries=4, arrival_kind="poisson", strategy="DP",
               seed=3),
    QuerySubmitted(time=0.25, query_id=1, plan_index=2, plan_label="g2",
                   strategy="FP", service_class=INTERACTIVE, params_seed=99),
    QuerySubmitted(time=0.5, query_id=2, plan_index=None, plan_label="adhoc",
                   strategy="DP", service_class=None, params_seed=0),
    QueryAdmitted(time=0.3, query_id=1, queued_for=0.05),
    QueryStarted(time=0.3, query_id=1, strategy="FP"),
    QueryFinished(time=1.5, query_id=1, plan_label="g2",
                  service_class="interactive", latency=1.25,
                  queueing_delay=0.05),
    QueryShedEvent(time=2.0, query_id=3, service_class="batch",
                   reason="queue_timeout"),
    StealRound(time=0.7, query_id=1, node_id=0, scope=None, cross=False),
    StealRound(time=0.8, query_id=1, node_id=1, scope=4, cross=True),
    StealTransfer(time=0.9, query_id=1, src_node=1, dst_node=0,
                  activations=12, hash_bytes=8192),
    BrokerImbalance(time=0.6, node_id=0, local_load=1, peak_load=9),
]


class TestEventCodec:
    @pytest.mark.parametrize("event", EVENT_EXAMPLES,
                             ids=lambda e: type(e).__name__)
    def test_encode_decode_roundtrip(self, event):
        assert decode_event(encode_event(event)) == event

    def test_json_roundtrip_via_text(self):
        for event in EVENT_EXAMPLES:
            text = json.dumps(encode_event(event), sort_keys=True)
            assert decode_event(json.loads(text)) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            decode_event({"kind": "nope"})

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ValueError, match="unknown RunStarted field 'x'"):
            decode_event({**encode_event(EVENT_EXAMPLES[0]), "x": 1})

    def test_non_event_rejected(self):
        with pytest.raises(TypeError):
            encode_event({"kind": "run_started"})

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_sink_roundtrips_every_event_type(self, tmp_path, suffix):
        path = str(tmp_path / f"events{suffix}")
        with JsonLinesLogger(path) as logger:
            for event in EVENT_EXAMPLES:
                logger.log(event)
        assert read_events(path) == EVENT_EXAMPLES

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_sink_roundtrip_property(self, tmp_path_factory, data):
        # Randomized field values (floats with full precision, unicode
        # class names) through the gzip sink: lossless for every kind.
        floats = st.floats(min_value=0.0, max_value=1e6,
                           allow_nan=False, allow_infinity=False)
        ints = st.integers(min_value=0, max_value=2**31)
        cls = st.one_of(
            st.none(),
            st.builds(
                ServiceClass,
                name=st.text(min_size=1, max_size=8),
                weight=st.floats(min_value=0.1, max_value=10.0,
                                 allow_nan=False),
                priority=st.integers(min_value=-5, max_value=5),
            ),
        )
        events = [
            RunStarted(time=data.draw(floats), queries=data.draw(ints),
                       arrival_kind=data.draw(st.sampled_from(
                           ["poisson", "bursty", "closed", "trace"])),
                       strategy="DP", seed=data.draw(ints)),
            QuerySubmitted(time=data.draw(floats), query_id=data.draw(ints),
                           plan_index=data.draw(st.none() | ints),
                           plan_label=data.draw(st.text(max_size=8)),
                           strategy="FP", service_class=data.draw(cls),
                           params_seed=data.draw(ints)),
            QueryFinished(time=data.draw(floats), query_id=data.draw(ints),
                          plan_label="p", service_class="c",
                          latency=data.draw(floats),
                          queueing_delay=data.draw(floats)),
            StealTransfer(time=data.draw(floats), query_id=data.draw(ints),
                          src_node=0, dst_node=1,
                          activations=data.draw(ints),
                          hash_bytes=data.draw(ints)),
        ]
        path = str(tmp_path_factory.mktemp("trace") / "ev.jsonl.gz")
        with JsonLinesLogger(path) as logger:
            for event in events:
                logger.log(event)
        assert read_events(path) == events


# -- recording ---------------------------------------------------------------


class TestRecording:
    def test_logger_records_full_lifecycle(self):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = small_join_plan(config)
        spec = WorkloadSpec(
            queries=4, arrival=ArrivalSpec(kind="poisson", rate=100.0),
            seed=2,
        )
        logger = MemoryLogger()
        WorkloadDriver(plan, config, spec, logger=logger).run()
        kinds = [type(e).__name__ for e in logger.events]
        assert kinds[0] == "RunStarted"
        assert kinds.count("QuerySubmitted") == 4
        assert kinds.count("QueryAdmitted") == 4
        assert kinds.count("QueryStarted") == 4
        assert kinds.count("QueryFinished") == 4
        by_query = [e for e in logger.events
                    if isinstance(e, QuerySubmitted)]
        assert sorted(e.query_id for e in by_query) == [0, 1, 2, 3]

    def test_recording_does_not_perturb_the_run(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plans = plan_population(config)
        spec = WorkloadSpec(
            queries=6, arrival=ArrivalSpec(kind="closed", population=3),
            policy=AdmissionPolicy(max_multiprogramming=3), seed=5,
        )
        bare = WorkloadDriver(plans, config, spec).run()
        logged = WorkloadDriver(plans, config, spec,
                                logger=MemoryLogger()).run()
        assert summary_bytes(bare.metrics) == summary_bytes(logged.metrics)

    def test_steal_rounds_logged_when_stealing_happens(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = small_join_plan(config, r=2000, s=4000)
        spec = WorkloadSpec(queries=2, seed=1,
                            arrival=ArrivalSpec(kind="poisson", rate=1000.0))
        logger = MemoryLogger()
        result = WorkloadDriver(plan, config, spec, logger=logger).run()
        rounds = [e for e in logger.events if isinstance(e, StealRound)]
        assert len(rounds) == sum(
            c.result.metrics.steal_rounds for c in result.metrics.completions
        )

    def test_shed_events_logged(self):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = small_join_plan(config)
        spec = WorkloadSpec(
            queries=8,
            arrival=ArrivalSpec(kind="bursty", rate=500.0, burst_size=8.0),
            policy=AdmissionPolicy(max_multiprogramming=1,
                                   queue_timeout=0.01),
            seed=4,
        )
        logger = MemoryLogger()
        result = WorkloadDriver(plan, config, spec, logger=logger).run()
        shed_events = [e for e in logger.events
                       if isinstance(e, QueryShedEvent)]
        assert result.metrics.shed_count > 0
        assert len(shed_events) == result.metrics.shed_count


# -- record -> replay --------------------------------------------------------


class TestRecordReplayRoundTrip:
    def _roundtrip(self, plans, config, spec, tmp_path):
        path = str(tmp_path / "run.jsonl.gz")
        with JsonLinesLogger(path) as logger:
            original = WorkloadDriver(plans, config, spec,
                                      logger=logger).run()
        trace = Trace.load(path)
        replayed = WorkloadDriver(plans, config, spec, trace=trace).run()
        assert summary_bytes(original.metrics) == \
            summary_bytes(replayed.metrics)
        return original, trace

    def test_open_loop_roundtrip(self, tmp_path):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plans = plan_population(config)
        spec = WorkloadSpec(
            queries=8, arrival=ArrivalSpec(kind="poisson", rate=50.0),
            seed=3,
        )
        original, trace = self._roundtrip(plans, config, spec, tmp_path)
        assert not trace.closed_loop
        assert [q.query_id for q in trace.queries] == list(range(8))

    def test_closed_loop_roundtrip(self, tmp_path):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plans = plan_population(config)
        spec = WorkloadSpec(
            queries=8, arrival=ArrivalSpec(kind="closed", population=3),
            policy=AdmissionPolicy(max_multiprogramming=3), seed=5,
        )
        _original, trace = self._roundtrip(plans, config, spec, tmp_path)
        assert trace.closed_loop

    def test_shed_heavy_roundtrip(self, tmp_path):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plans = plan_population(config)
        spec = WorkloadSpec(
            queries=12,
            arrival=ArrivalSpec(kind="bursty", rate=200.0, burst_size=6.0),
            policy=AdmissionPolicy(max_multiprogramming=2,
                                   queue_timeout=0.05),
            seed=9,
        )
        original, _trace = self._roundtrip(plans, config, spec, tmp_path)
        assert original.metrics.shed_count > 0

    def test_service_class_mix_roundtrip(self, tmp_path):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = small_join_plan(config)
        interactive = dataclasses.replace(INTERACTIVE, latency_slo=5.0)
        spec = WorkloadSpec(
            queries=8, arrival=ArrivalSpec(kind="poisson", rate=80.0),
            classes=((interactive, 1.0), (BATCH, 1.0)),
            policy=AdmissionPolicy(max_multiprogramming=3), seed=6,
        )
        original, trace = self._roundtrip([plan], config, spec, tmp_path)
        assert {q.service_class.name for q in trace.queries} == \
            {c.service_class for c in original.metrics.completions}

    def test_replay_of_replay_is_stable(self, tmp_path):
        # Replaying a replay's own recording converges: the first replay
        # is already byte-identical, so the second must be too.
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = small_join_plan(config)
        spec = WorkloadSpec(
            queries=5, arrival=ArrivalSpec(kind="poisson", rate=60.0),
            seed=1,
        )
        first_path = str(tmp_path / "first.jsonl")
        with JsonLinesLogger(first_path) as logger:
            original = WorkloadDriver([plan], config, spec,
                                      logger=logger).run()
        trace = Trace.load(first_path)
        second_path = str(tmp_path / "second.jsonl")
        with JsonLinesLogger(second_path) as logger:
            replayed = WorkloadDriver([plan], config, spec, trace=trace,
                                      logger=logger).run()
        re_replayed = WorkloadDriver(
            [plan], config, spec, trace=Trace.load(second_path)
        ).run()
        assert summary_bytes(original.metrics) == \
            summary_bytes(replayed.metrics) == \
            summary_bytes(re_replayed.metrics)

    def test_trace_rejects_out_of_range_plan_index(self):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = small_join_plan(config)
        trace = Trace(queries=(TraceQuery(
            query_id=0, arrival_time=0.0, plan_index=5, strategy="DP",
            service_class=None, params_seed=1,
        ),))
        with pytest.raises(ValueError, match="plan index"):
            WorkloadDriver([plan], config, trace=trace)

    def test_trace_from_events_requires_plan_indices(self):
        events = [QuerySubmitted(time=0.0, query_id=0, plan_index=None,
                                 plan_label="adhoc", strategy="DP",
                                 service_class=None, params_seed=0)]
        with pytest.raises(ValueError, match="plan index"):
            Trace.from_events(events)


# -- coordinator-level logging (no driver) -----------------------------------


class TestCoordinatorLogging:
    def test_direct_submission_logs_without_plan_index(self):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = small_join_plan(config)
        logger = MemoryLogger()
        coordinator = MultiQueryCoordinator(config, logger=logger)
        coordinator.submit(plan)
        coordinator.close_arrivals()
        coordinator.run()
        submitted = [e for e in logger.events
                     if isinstance(e, QuerySubmitted)]
        assert len(submitted) == 1
        assert submitted[0].plan_index is None


# -- facade / spec surface ---------------------------------------------------


class TestTraceSpecSurface:
    def test_facade_record_replay_byte_identical(self, tmp_path):
        from repro.api import ScenarioSpec, TraceSpec, run

        scenario = ScenarioSpec(
            cluster=MachineConfig(nodes=2, processors_per_node=2),
            workload=WorkloadSpec(
                queries=6, arrival=ArrivalSpec(kind="poisson", rate=40.0),
                seed=11,
            ),
        )
        path = str(tmp_path / "run.jsonl.gz")
        recorded = run(scenario, record=path)
        replayed = run(
            dataclasses.replace(scenario, trace=TraceSpec(path=path))
        )
        assert summary_bytes(recorded.metrics) == \
            summary_bytes(replayed.metrics)

    def test_trace_spec_validation(self):
        from repro.api import TraceSpec
        from repro.serving import TraceGenSpec

        with pytest.raises(ValueError, match="exactly one source"):
            TraceSpec()
        with pytest.raises(ValueError, match="exactly one source"):
            TraceSpec(path="x.jsonl", generate=TraceGenSpec())

    def test_trace_needs_serving_mode(self):
        from repro.api import ScenarioSpec, TraceSpec

        with pytest.raises(ValueError, match="serving"):
            ScenarioSpec(mode="single", trace=TraceSpec(path="x.jsonl"))

    def test_record_rejected_in_single_mode(self):
        from repro.api import ScenarioSpec, run
        from repro.api.facade import _cached_plans

        before = _cached_plans.cache_info()
        with pytest.raises(ValueError, match="single"):
            run(ScenarioSpec(mode="single"), record="/tmp/nope.jsonl")
        # Rejected before the population is even looked up: a cold
        # ``repro-run single.json --record x`` fails without compiling.
        after = _cached_plans.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_scenario_with_trace_serde_roundtrip(self):
        from repro.api import ScenarioSpec, TraceSpec
        from repro.serving import TraceGenSpec

        spec = ScenarioSpec(
            trace=TraceSpec(generate=TraceGenSpec(queries=10)),
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
