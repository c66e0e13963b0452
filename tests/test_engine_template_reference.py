"""Template instantiation against the from-scratch reference build.

An :class:`~repro.engine.template.ExecutionTemplate` computes the
seed-independent part of an execution once and a context instantiates it.
The model it must reproduce is the construction kept *here*
(:func:`reference_build`): everything from scratch per query — one named
stream and one ``zipf_weights(n, theta, rng)`` per producer and per
``(scan, node)``, trigger chunks cut and pushed one by one.  On a grid of
plans, machines, skews and seeds the two agree exactly: router cells and
weights, queue contents in order, ``outstanding`` counts, ``producer_of``,
opening credit tables, and — where the seed is consumed at all — the
names and post-draw state of every stream.

Also here: why the ``theta == 0`` skip is sound (every stream is drawn
from exactly once, for one shuffle, and never after launch), and that
queries instantiated from one template share nothing mutable.
"""

import dataclasses
import gc
import math
import random
import types
from collections import deque
from contextlib import contextmanager
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Relation, SkewSpec
from repro.catalog.skew import proportional_split, zipf_weights
from repro.engine import ExecutionParams, QueryExecutor
from repro.engine import context as context_module
from repro.engine.activation import TriggerActivation
from repro.engine.queues import OperatorQueueSet
from repro.engine.routing import Router, consumer_cells
from repro.engine.runlog import NOOP_LOGGER
from repro.engine.substrate import Substrate
from repro.engine.template import ExecutionTemplate
from repro.optimizer import BaseNode, JoinNode, compile_plan
from repro.optimizer.operator_tree import OpKind
from repro.query import JoinEdge, QueryGraph
from repro.sim import MachineConfig
from repro.sim.core import SchedulingDiscipline
from repro.sim.rng import RandomStreams, derive_seed
from repro.workloads import pipeline_chain_scenario


# -- the reference model -----------------------------------------------------


@dataclasses.dataclass
class ReferenceBuild:
    routers: dict       # producer op -> (cells, weights) | None for the root
    credits: dict       # (node, producer op) -> opening credit per cell | None
    queues: dict        # (op, node) -> [activations of queue 0, queue 1, ...]
    outstanding: dict   # op -> activations in existence after seeding
    producer_of: dict   # consumer op -> producer op
    streams: RandomStreams


def reference_build(plan, config, params, streams=None) -> ReferenceBuild:
    """What ``ExecutionContext.__init__`` + ``seed_triggers`` built before
    the template existed, stripped of the simulation objects around it."""
    streams = streams or RandomStreams(params.seed)
    k = config.processors_per_node
    theta = params.skew.redistribution
    homes = plan.homes
    producer_of = {}
    for op in plan.operators:
        if op.consumer_id is not None:
            producer_of[op.consumer_id] = op.op_id

    routers, credits = {}, {}
    for op in plan.operators:
        if op.kind is OpKind.BUILD:
            continue
        if op.consumer_id is None:
            router = None
        else:
            consumer_home = homes[op.consumer_id]
            cells = consumer_cells(consumer_home, k)
            buckets = params.buckets_for_home(len(consumer_home) * k)
            rng = streams.stream(f"router:{op.op_id}")
            if buckets < len(cells):
                buckets = len(cells)
            bucket_weights = zipf_weights(buckets, theta, rng)
            weights = [0.0] * len(cells)
            for bucket, weight in enumerate(bucket_weights):
                weights[bucket % len(cells)] += weight
            router = (cells, weights)
        routers[op.op_id] = router
        for node_id in homes[op.op_id]:
            credits[(node_id, op.op_id)] = None if router is None else [
                params.credit_window if cell[0] != node_id else 0
                for cell in router[0]
            ]

    queues = {(op.op_id, node_id): [[] for _ in range(k)]
              for op in plan.operators for node_id in homes[op.op_id]}
    outstanding = {op.op_id: 0 for op in plan.operators}
    for op in plan.operators:
        if op.kind is not OpKind.SCAN:
            continue
        placement = plan.placements[op.relation.name]
        tuples_per_page = op.relation.tuples_per_page(config.page_size)
        for node_id in homes[op.op_id]:
            per_disk = []
            for disk_id, disk_tuples in enumerate(placement.disk_shares(node_id)):
                if disk_tuples == 0:
                    continue
                pages = math.ceil(disk_tuples / tuples_per_page)
                n_chunks = math.ceil(pages / params.pages_per_trigger)
                page_shares = proportional_split(pages, [1.0] * n_chunks)
                tuple_shares = proportional_split(disk_tuples, page_shares)
                per_disk.append([
                    TriggerActivation(op_id=op.op_id, disk_id=disk_id,
                                      pages=chunk_pages, tuples=chunk_tuples)
                    for chunk_pages, chunk_tuples in zip(page_shares,
                                                         tuple_shares)
                    if chunk_pages
                ])
            chunks = [chunk for disk_chunks in per_disk for chunk in disk_chunks]
            if not chunks:
                continue
            rng = streams.stream(f"trigger:{op.op_id}:{node_id}")
            weights = zipf_weights(k, theta, rng)
            counts = proportional_split(len(chunks), weights)
            cursor = 0
            for queue_index, count in enumerate(counts):
                for activation in chunks[cursor:cursor + count]:
                    outstanding[op.op_id] += 1
                    queues[(op.op_id, node_id)][queue_index].append(activation)
                cursor += count
    return ReferenceBuild(routers, credits, queues, outstanding, producer_of,
                          streams)


def queue_contents(queue_set, index):
    """What queue ``index`` of the set holds, oldest first (from its cursor)."""
    return list(islice(queue_set.items[index], queue_set.heads[index], None))


def assert_matches_reference(context, reference: ReferenceBuild) -> None:
    plan = context.plan
    assert context.producer_of == reference.producer_of
    assert set(context.channels) == set(reference.credits)
    for (node_id, op_id), channel in context.channels.items():
        expected = reference.routers[op_id]
        if expected is None:
            assert channel.router is None
            continue
        cells, weights = expected
        assert list(channel.router.cells) == cells
        # Exact: the same floats added in the same order, not approximately.
        assert list(channel.router.weights) == weights
        # Nothing pushed before launch; the first push opens the credits
        # (a push of nothing routes nothing).
        assert channel._carry is None and channel._remote_credits is None
        channel.push_tuples(0)
        assert channel._remote_credits == reference.credits[(node_id, op_id)]
        assert dict(channel._cell_index) == {c: i for i, c in enumerate(cells)}
    for op in plan.operators:
        assert context.ops[op.op_id].outstanding == reference.outstanding[op.op_id]
        for node_id in plan.homes[op.op_id]:
            queue_set = context.nodes[node_id].queue_sets[op.op_id]
            contents = [queue_contents(queue_set, i)
                        for i in range(len(queue_set.items))]
            assert contents == reference.queues[(op.op_id, node_id)]
            assert queue_set._queued == sum(len(q) for q in contents)
            assert queue_set._non_empty == sum(1 for q in contents if q)
            # Nothing consumed before launch.
            assert queue_set.heads == [0] * len(contents)
            assert queue_set.bytes_queued == [
                sum(a.nbytes for a in q) for q in contents]
    assert context.metrics.trigger_activations == sum(
        reference.outstanding.values()
    )


# -- plans ---------------------------------------------------------------------


def chain_plan(config, joins):
    plan, _config = pipeline_chain_scenario(
        base_tuples=600, chain_joins=joins, config=config
    )
    return plan


def bushy_plan(config):
    """(R join S) join (T join U)."""
    cards = {"R": 300, "S": 700, "T": 500, "U": 900}
    graph = QueryGraph(
        [Relation(name, card) for name, card in cards.items()],
        [JoinEdge("R", "S", 1.0 / cards["R"]),
         JoinEdge("S", "T", 1.0 / cards["S"]),
         JoinEdge("T", "U", 1.0 / cards["T"])],
    )
    left = JoinNode(BaseNode(graph.relation("R")), BaseNode(graph.relation("S")),
                    1.0 / cards["R"])
    right = JoinNode(BaseNode(graph.relation("T")), BaseNode(graph.relation("U")),
                     1.0 / cards["T"])
    return compile_plan(graph, JoinNode(left, right, 1.0 / cards["S"]), config,
                        label="bushy")


PLANS = {
    "chain1": lambda config: chain_plan(config, 1),
    "chain3": lambda config: chain_plan(config, 3),
    "bushy": bushy_plan,
}


def params_for(theta, seed, **overrides):
    return ExecutionParams(skew=SkewSpec(redistribution=theta),
                           seed=seed, **overrides)


# -- the grid --------------------------------------------------------------------


class TestTemplateMatchesReference:
    @given(theta=st.sampled_from([0.0, 0.5, 1.0]),
           nodes=st.integers(1, 4), procs=st.integers(1, 4),
           shape=st.sampled_from(sorted(PLANS)),
           strategy=st.sampled_from(["DP", "FP"]),
           pages_per_trigger=st.sampled_from([1, 4]))
    @settings(max_examples=60, deadline=None)
    def test_instantiated_context_equals_from_scratch_build(
            self, theta, nodes, procs, shape, strategy, pages_per_trigger):
        config = MachineConfig(nodes=nodes, processors_per_node=procs)
        plan = PLANS[shape](config)
        # One machine's params and template; each query brings its seed.
        machine = params_for(theta, 0, pages_per_trigger=pages_per_trigger)
        template = ExecutionTemplate(plan, config, machine)
        for seed in (0, 7, 1996, 2815):
            params = params_for(theta, seed,
                                pages_per_trigger=pages_per_trigger)
            with recorded_streams() as built:
                context = QueryExecutor(
                    plan, config, strategy=strategy,
                    template=lambda: template,
                ).launch(Substrate(config, machine), seed=seed)
            reference = reference_build(plan, config, params)
            assert_matches_reference(context, reference)
            if theta == 0:
                assert built == []
            else:
                # One stream per reference name, each left in the state
                # the reference's draw left it in.
                names = {derive_seed(seed, name): name
                         for name in reference.streams.names()}
                assert sorted(stream.seed_value for stream in built) == sorted(names)
                for stream in built:
                    assert (stream.getstate() == reference.streams.stream(
                        names[stream.seed_value]).getstate())

    def test_seeds_permute_differently_under_skew(self):
        """The grid is not vacuous: at theta > 0 the seed reaches the build."""
        config = MachineConfig(nodes=2, processors_per_node=4)
        plan = bushy_plan(config)
        builds = [reference_build(plan, config, params_for(1.0, seed))
                  for seed in (1, 2)]
        assert builds[0].routers != builds[1].routers
        assert builds[0].queues != builds[1].queues

    def test_a_context_built_alone_gets_a_private_template(self):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = bushy_plan(config)
        params = params_for(0.5, 3)
        context = context_module.ExecutionContext(
            plan, config, Substrate(config, params), params.seed)
        context.seed_triggers()
        assert_matches_reference(context, reference_build(plan, config, params))

    def test_template_checks_the_plan_fits_the_machine(self):
        plan = bushy_plan(MachineConfig(nodes=3, processors_per_node=2))
        small = MachineConfig(nodes=2, processors_per_node=2)
        with pytest.raises(ValueError, match="plan references node 2"):
            ExecutionTemplate(plan, small, ExecutionParams())
        with pytest.raises(ValueError, match="plan references node 2"):
            QueryExecutor(plan, small).launch(Substrate(small))


# -- soundness of skipping the streams at theta == 0 -------------------------------


class CountingRandom(random.Random):
    """Counts the public draws made on one stream."""

    def __init__(self, seed):
        super().__init__(seed)
        self.shuffles = 0
        self.other_draws = 0

    def shuffle(self, x):
        self.shuffles += 1
        before = self.other_draws
        super().shuffle(x)
        self.other_draws = before  # shuffle's own draws are not "other"

    def random(self):
        self.other_draws += 1
        return super().random()

    def getrandbits(self, k):
        self.other_draws += 1
        return super().getrandbits(k)


@contextmanager
def recorded_streams():
    """Yield the list of every ``random.Random`` the context module
    builds inside the block, each a :class:`CountingRandom` that keeps
    its seed as ``seed_value``.  The context keeps none of them, so this
    is the only way to look at the streams a launch drew from."""
    built = []

    class Recorded(CountingRandom):
        def __init__(self, seed):
            super().__init__(seed)
            self.seed_value = seed
            built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(context_module, "Random", Recorded)
        yield built


class CountingStreams(RandomStreams):
    def stream(self, name):
        if name not in self._streams:
            self._streams[name] = CountingRandom(
                derive_seed(self.master_seed, name))
        return self._streams[name]


class TestEachStreamIsDrawnFromOnce:
    """The per-query seed feeds ``router:*`` and ``trigger:*`` streams only,
    each for exactly one shuffle at launch.  A stream nobody else reads,
    drawn once to permute equal weights, can be skipped without a trace —
    which is what the template does at ``theta == 0``."""

    @pytest.mark.parametrize("strategy", ["DP", "FP"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_one_shuffle_per_stream_and_none_after_launch(
            self, strategy, theta):
        config = MachineConfig(nodes=2, processors_per_node=3)
        plan = bushy_plan(config)
        executor = QueryExecutor(plan, config, strategy=strategy,
                                 params=params_for(theta, 11))
        with recorded_streams() as built:
            context = executor.launch(Substrate(config, executor.params))
            launched = list(built)
            after_launch = [stream.getstate() for stream in launched]
            context.env.run()
            assert context.done
        assert built == launched  # execution builds no stream
        routed = [op for op in plan.operators
                  if op.kind is not OpKind.BUILD and op.consumer_id is not None]
        scans = [op for op in plan.operators if op.kind is OpKind.SCAN]
        names = ([f"router:{op.op_id}" for op in routed]
                 + [f"trigger:{op.op_id}:{node_id}" for op in scans
                    for node_id in plan.homes[op.op_id]])
        assert sorted(stream.seed_value for stream in launched) == sorted(
            derive_seed(11, name) for name in names)
        for stream, state in zip(launched, after_launch):
            label = stream.seed_value
            assert (stream.shuffles, stream.other_draws) == (1, 0), label
            assert stream.getstate() == state, label

    def test_the_reference_build_draws_once_per_stream_too(self):
        """The property belongs to the model, not to the new code path."""
        config = MachineConfig(nodes=2, processors_per_node=3)
        plan = bushy_plan(config)
        for theta in (0.0, 1.0):
            params = params_for(theta, 5)
            reference = reference_build(plan, config, params,
                                        CountingStreams(params.seed))
            for name in reference.streams.names():
                stream = reference.streams.stream(name)
                assert (stream.shuffles, stream.other_draws) == (1, 0), name

    @pytest.mark.parametrize("strategy", ["DP", "FP"])
    def test_no_stream_at_all_without_redistribution_skew(self, strategy):
        config = MachineConfig(nodes=2, processors_per_node=3)
        plan = bushy_plan(config)
        executor = QueryExecutor(plan, config, strategy=strategy,
                                 params=params_for(0.0, 11))
        with recorded_streams() as built:
            context = executor.launch(Substrate(config, executor.params))
            context.env.run()
        assert context.done
        assert built == []

    def test_the_shuffle_skipped_at_theta_zero_is_a_value_no_op(self):
        for n in (1, 2, 3, 64, 96, 256):
            plain = zipf_weights(n, 0.0)
            assert len(set(plain)) == 1
            assert zipf_weights(n, 0.0, random.Random(n)) == plain


# -- nothing mutable is shared -------------------------------------------------------


IMMUTABLE = (int, float, str, bytes, bool, type(None), tuple, frozenset,
             types.MappingProxyType, Router)
#: not walked into, and fine to share: code, not state (the scheduling
#: disciplines are stateless process-wide singletons, ``make_discipline``).
CODE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
        types.CodeType, SchedulingDiscipline)


def is_frozen_dataclass(obj) -> bool:
    return (dataclasses.is_dataclass(obj) and not isinstance(obj, type)
            and obj.__dataclass_params__.frozen)


def reachable(context, stop: set) -> dict:
    """id -> object for everything reachable from the context's own state,
    not walking into ``stop`` (the plan, the machine, the template), types,
    modules, functions, read-only views or frozen dataclass instances."""
    seen = {}
    todo = [context]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or id(obj) in stop:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.MethodType):
            todo.append(obj.__self__)
            continue
        if isinstance(obj, CODE + (types.MappingProxyType,)):
            continue
        if is_frozen_dataclass(obj):
            continue
        todo.extend(gc.get_referents(obj))
    return seen


class TestQueriesShareNothingMutable:
    def launch_pair(self, theta):
        config = MachineConfig(nodes=2, processors_per_node=2)
        plan = bushy_plan(config)
        params = self.params(theta, 0)
        template = ExecutionTemplate(plan, config, params)
        contexts = [
            QueryExecutor(plan, config, template=lambda: template).launch(
                Substrate(config, params), seed=seed)
            for seed in (1, 2)
        ]
        return plan, config, template, contexts

    @staticmethod
    def params(theta, seed):
        # One page per trigger: a queue's seeded run is several triggers
        # long, so a run moves its cursor before it drains.
        return params_for(theta, seed, pages_per_trigger=1)

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_shared_objects_are_all_immutable(self, theta):
        plan, config, template, (a, b) = self.launch_pair(theta)
        # Each query has a machine of its own here; every machine's default
        # sink is the one stateless ``NOOP_LOGGER``.
        stop = {id(plan), id(config), id(template), id(NOOP_LOGGER)}
        # What the plan owns (operators, relations, homes) is read-only
        # input, shared with every execution since the first version.
        stop |= set(reachable(plan, set()))
        reach_a, reach_b = reachable(a, stop), reachable(b, stop)
        shared = [reach_a[i] for i in reach_a.keys() & reach_b.keys()]
        mutable = [obj for obj in shared
                   if not isinstance(obj, IMMUTABLE + CODE)
                   and not is_frozen_dataclass(obj)]
        assert mutable == []
        # Not vacuous: the walk did reach the state that matters, and the
        # sharing the template exists for is really there.
        for kind in (list, dict, deque):
            assert any(isinstance(obj, kind) for obj in reach_a.values())
        assert any(isinstance(obj, TriggerActivation) for obj in shared)
        if theta == 0:
            assert any(isinstance(obj, Router) for obj in shared)

    def test_a_router_cannot_be_written_through(self):
        _plan, _config, template, (a, _b) = self.launch_pair(0.0)
        router = next(r.router for r in template.routes if r.router is not None)
        assert any(ch.router is router for ch in a.channels.values())
        assert isinstance(router.cells, tuple)
        assert isinstance(router.weights, tuple)
        with pytest.raises(TypeError):
            router.cell_index[(9, 9)] = 0
        with pytest.raises(AttributeError):
            router.extra = 1

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_running_one_query_leaves_its_sibling_and_the_template_alone(
            self, theta, monkeypatch):
        plan, config, template, (a, b) = self.launch_pair(theta)

        def template_state():
            return (
                template.operators, dict(template.producer_of),
                [(r.op_id, r.consumer_id,
                  None if r.router is None else
                  (r.router.cells, r.router.weights, dict(r.router.cell_index)),
                  r.home) for r in template.routes],
                template.scans,
            )

        def context_state(context):
            return (
                {(node.node_id, op_id): (
                    [queue_contents(queue_set, i)
                     for i in range(len(queue_set.items))],
                    list(queue_set.heads), list(queue_set.bytes_queued))
                 for node in context.nodes
                 for op_id, queue_set in node.queue_sets.items()},
                {op_id: (r.outstanding, r.blocked, r.producers_done,
                         set(r.remaining_predecessors))
                 for op_id, r in context.ops.items()},
                {key: (None if ch._remote_credits is None
                       else list(ch._remote_credits),
                       None if ch._carry is None else list(ch._carry),
                       None if ch._pending is None else list(ch._pending))
                 for key, ch in context.channels.items()
                 if ch.router is not None},
            )

        template_before, b_before = template_state(), context_state(b)
        # A drained run's cursor goes back to 0, so a's end state cannot
        # show a cursor shared with b: compare b also at a's first pop that
        # leaves a cursor inside a seeded run.
        mid_run = []
        pop = OperatorQueueSet.pop

        def checked_pop(queue_set, index):
            activation = pop(queue_set, index)
            if queue_set.heads[index] and not mid_run:
                mid_run.append(context_state(b) == b_before)
            return activation

        monkeypatch.setattr(OperatorQueueSet, "pop", checked_pop)
        a.env.run()  # mutates everything a query mutates
        assert mid_run == [True]
        assert a.done
        for node in a.nodes:
            assert all(not qs.has_work for qs in node.queue_sets.values())
        assert template_state() == template_before
        assert context_state(b) == b_before

        # And the sibling still runs to the result it gets when run alone.
        b.env.run()
        alone = QueryExecutor(plan, config, params=self.params(theta, 2)).run()
        assert b.response_time == alone.response_time
        assert b.result_sink.tuples == alone.metrics.result_tuples
