"""Guards on the per-query launch path: what is built once stays built once.

Two properties of :class:`~repro.engine.template.ExecutionTemplate` that a
later change could lose without moving a single simulated instant:

* **operation counts** — a serving run constructs ``Router``\\ s and calls
  ``zipf_weights`` once per *plan*, and validates ``ExecutionParams``
  (``__post_init__``) a constant number of times, however many queries it
  admits; and within a plan, routes over one consumer home share one
  router's cell tables;
* **lifetime** — a template dies with the run (or the lone executor) that
  built it.  Nothing process-wide keeps one: the trigger chunks of a large
  plan are megabytes, and a finished query is freed by refcount (see
  ``tests/test_engine_teardown.py``), so a template kept past its run is
  the one thing left holding them;
* **census** — a query brings a seed, not an ``ExecutionParams``: the
  params alive mid-run do not grow with the queries pending or running.
"""

import gc

import pytest

import repro
from repro.api import ScenarioSpec, build_plans, replace_path
from repro.catalog import SkewSpec
from repro.engine import QueryExecutor, Substrate
from repro.engine import routing as routing_module
from repro.engine import template as template_module
from repro.engine.params import ExecutionParams
from repro.engine.routing import Router
from repro.engine.template import ExecutionTemplate
from repro.optimizer.operator_tree import OpKind
from repro.workloads import pipeline_chain_scenario

#: the ledger's ``replay_tiny`` shape: tiny one-join queries from a
#: generated trace against a deep pending queue, most of them shed.
REPLAY_TINY = """
{
  "label": "guards/replay_tiny",
  "cluster": {"machines": {"nodes": 1, "processors_per_node": 2}},
  "plans": {"kind": "pipeline_chain", "base_tuples": 16, "chain_joins": 1},
  "params": {"seed": 7},
  "workload": {
    "policy": {"max_multiprogramming": 8, "queue_timeout": 5.0},
    "seed": 7
  },
  "trace": {
    "generate": {
      "queries": 200,
      "seed": 7,
      "base_rate": 40.0,
      "diurnal_period": 300.0
    }
  }
}
"""


def replay_spec(queries: int, theta: float) -> ScenarioSpec:
    spec = ScenarioSpec.from_json(REPLAY_TINY)
    spec = replace_path(spec, "trace.generate.queries", queries)
    return replace_path(spec, "params.skew.redistribution", theta)


class Counter:
    """Counts calls to ``owner.name`` while patched in."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)


class TestLaunchPathOperationCounts:
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_build_work_is_per_plan_not_per_query(self, monkeypatch, theta):
        specs = {queries: replay_spec(queries, theta) for queries in (100, 200)}
        for spec in specs.values():
            build_plans(spec)  # compiled and cached before anything is counted
        routers = Counter(monkeypatch, Router, "__init__")
        validations = Counter(monkeypatch, ExecutionParams, "__post_init__")
        templates = Counter(monkeypatch, ExecutionTemplate, "__init__")
        zipf = [Counter(monkeypatch, module, "zipf_weights")
                for module in (routing_module, template_module)]

        counts, admitted = {}, {}
        for queries, spec in specs.items():
            before = (routers.calls, sum(c.calls for c in zipf),
                      validations.calls, templates.calls)
            result = repro.run(spec)
            after = (routers.calls, sum(c.calls for c in zipf),
                     validations.calls, templates.calls)
            counts[queries] = tuple(b - a for a, b in zip(before, after))
            admitted[queries] = result.workload.admitted

        assert admitted[200] >= admitted[100] + 50  # the runs do differ
        assert counts[200] == counts[100]           # ... the build work not
        router_inits, zipf_calls, validated, built = counts[200]
        (plan,) = build_plans(specs[200])
        routed = [op for op in plan.operators if op.consumer_id is not None
                  and op.kind is not OpKind.BUILD]
        routes = len(routed)
        homes = {plan.homes[op.consumer_id] for op in routed}
        assert built == 1                   # one plan, one cluster size
        # One router per consumer home, not per route, let alone per route
        # and admitted query.
        assert router_inits == len(homes) < routes
        assert zipf_calls <= 2 * routes + 2
        assert validated == 0               # a query brings a seed, not params

    def test_an_sp_only_run_builds_no_template(self, monkeypatch):
        """SP reads no template, so the coordinator builds it only when a
        DP or FP launch asks for one."""
        templates = Counter(monkeypatch, ExecutionTemplate, "__init__")
        built = {}
        # Generated arrivals: a trace replays each query's recorded strategy.
        arrivals = replace_path(replay_spec(40, 0.0), "trace", None)
        for strategy in ("SP", "DP"):
            spec = replace_path(arrivals, "workload.strategy", strategy)
            before = templates.calls
            assert repro.run(spec).workload.admitted > 0
            built[strategy] = templates.calls - before
        assert built == {"SP": 0, "DP": 1}

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_routes_over_one_home_share_their_tables(self, theta):
        plan, config = pipeline_chain_scenario(nodes=4, processors_per_node=8)
        params = ExecutionParams(skew=SkewSpec(redistribution=theta))
        template = ExecutionTemplate(plan, config, params)
        context = QueryExecutor(plan, config, strategy="DP", params=params,
                                template=lambda: template).launch(
            Substrate(config, params))
        by_home = {}
        for route in template.routes:
            if route.router is not None:
                by_home.setdefault(plan.homes[route.consumer_id],
                                   []).append(route.router)
        assert max(map(len, by_home.values())) > 1  # some home is shared
        # A query's routers (its own permutations at theta > 0) share the
        # template's tables.
        for channel in context.channels.values():
            if channel.router is not None:
                by_home[plan.homes[channel.consumer_op_id]].append(
                    channel.router)
        for shared in by_home.values():
            assert len({id(router.cells) for router in shared}) == 1
            assert len({id(router.cell_index) for router in shared}) == 1


def live_templates() -> list:
    gc.collect()
    return [obj for obj in gc.get_objects()
            if isinstance(obj, ExecutionTemplate)]


class TestTemplateLifetime:
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_no_template_survives_a_serving_run(self, theta):
        assert live_templates() == []
        result = repro.run(replay_spec(100, theta))
        assert result.workload.admitted > 0
        assert live_templates() == []  # with the result still alive

    def test_single_query_runs_do_not_accumulate_templates(self):
        """The ``single_skew`` regime: the six mixed plans one after another."""
        spec = ScenarioSpec.from_json("""
        {
          "mode": "single",
          "cluster": {"machines": {"nodes": 2, "processors_per_node": 2}},
          "plans": {"kind": "workload_mix", "plan_count": 6,
                    "workload_queries": 8, "scale": 0.002, "seed": 1996},
          "params": {"skew": {"redistribution": 0.8}}
        }
        """)
        plans = build_plans(spec)
        assert len(plans) == 6
        results = []
        for plan in plans:
            results.append(repro.run(spec, plans=(plan,)))
            assert live_templates() == []
        assert all(r.execution.metrics.result_tuples > 0 for r in results)

    def test_a_lone_executor_lets_go_of_its_template_at_launch(self):
        """Kept for the whole query, a private template holds every trigger
        chunk the running query's queues would have released one by one."""
        from repro.engine import QueryExecutor
        from repro.engine.substrate import Substrate
        from repro.sim import MachineConfig
        from repro.workloads import pipeline_chain_scenario

        config = MachineConfig(nodes=2, processors_per_node=2)
        plan, _ = pipeline_chain_scenario(base_tuples=400, chain_joins=2,
                                          config=config)
        executor = QueryExecutor(plan, config)
        context = executor.launch(Substrate(config))
        assert executor.template is None and context.template is None
        assert live_templates() == []  # with the query not yet run
        context.env.run()
        assert context.done

    def test_a_coordinator_keeps_one_template_per_plan_and_size(self):
        from repro.serving.coordinator import MultiQueryCoordinator
        from repro.sim import MachineConfig
        from repro.workloads import pipeline_chain_scenario

        config = MachineConfig(nodes=1, processors_per_node=2)
        plan, _ = pipeline_chain_scenario(base_tuples=16, chain_joins=1,
                                          config=config)
        other, _ = pipeline_chain_scenario(base_tuples=32, chain_joins=1,
                                           config=config)
        coordinator = MultiQueryCoordinator(config)
        env = coordinator.env

        def arrivals():
            for index in range(6):
                coordinator.submit(plan, seed=index, plan_index=0)
                coordinator.submit(other, seed=index, plan_index=1)
                yield env.timeout(0.5)
            coordinator.close_arrivals()

        env.process(arrivals(), name="arrivals")
        seen = []  # the templates themselves: a freed one's id can recur
        original = coordinator._template_for

        def recording(request, machine):
            template = original(request, machine)
            if not any(template is known for known in seen):
                seen.append(template)
            assert template.plan is request.plan
            assert template.params is coordinator.substrate.params
            return template

        coordinator._template_for = recording
        metrics = coordinator.run()
        assert metrics.completed == 12
        assert len(seen) == 2
        assert set(coordinator._templates) == {(0, 1), (1, 1)}


def live_params() -> int:
    return sum(isinstance(obj, ExecutionParams) for obj in gc.get_objects())


class TestQueriesBringASeed:
    def test_no_query_keeps_params_of_its_own(self, monkeypatch):
        from repro.serving.coordinator import MultiQueryCoordinator

        spec = replay_spec(200, 0.5)
        build_plans(spec)
        before = live_params()
        samples = []  # (live queries, ExecutionParams alive) at each new high
        original = MultiQueryCoordinator._start

        def sampling(coordinator, request):
            original(coordinator, request)
            live = len(coordinator.pending) + len(coordinator.running)
            if not samples or live > samples[-1][0]:
                samples.append((live, live_params()))

        monkeypatch.setattr(MultiQueryCoordinator, "_start", sampling)
        assert repro.run(spec).workload.admitted > 0
        assert samples[-1][0] >= 40     # a deep queue was really sampled
        counts = {alive for _live, alive in samples}
        assert len(counts) == 1         # flat while the queue grew
        assert counts.pop() <= before + 1
