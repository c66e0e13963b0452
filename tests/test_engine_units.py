"""Unit tests for engine building blocks: activations, queues, routing, tables."""

import dataclasses
import gc
import re
import typing
from collections import Counter, deque
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.spec import ScenarioSpec
from repro.engine import ExecutionParams, QueryExecutor, Substrate
from repro.engine.activation import DataActivation, TriggerActivation
from repro.engine.metrics import (ExecutionMetrics, ExecutionResult,
                                  QueryCompletion)
from repro.engine import queues as queues_module
from repro.engine.queues import OperatorQueueSet, QueueFull
from repro.engine.routing import Router, consumer_cells
from repro.engine.tables import HashTableStore
from repro.engine.template import ExecutionTemplate
from repro.optimizer.operator_tree import OpKind
from repro.sim import Machine, MachineConfig
from repro.workloads import pipeline_chain_scenario


# ---------------------------------------------------------------------------
# ExecutionParams
# ---------------------------------------------------------------------------

def spec_types() -> list[type]:
    """Every dataclass reachable from ``ScenarioSpec``'s type hints."""
    found: list[type] = []

    def walk(tp) -> None:
        if dataclasses.is_dataclass(tp):
            if tp not in found:
                found.append(tp)
                for hint in typing.get_type_hints(tp).values():
                    walk(hint)
        else:
            for arg in typing.get_args(tp):
                walk(arg)

    walk(ScenarioSpec)
    return found


class TestExecutionParams:
    def test_defaults_valid(self):
        params = ExecutionParams()
        assert params.batch_size == 64
        assert params.queue_capacity >= 2

    def test_buckets_scale_with_parallelism(self):
        params = ExecutionParams(fragmentation_factor=8)
        assert params.buckets_for_home(32) == 256
        # Floor of 64 buckets even on tiny homes.
        assert params.buckets_for_home(2) == 64

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0},
        {"pages_per_trigger": 0},
        {"queue_capacity": 1},
        {"credit_window": 0},
        {"steal_fraction": 0.0},
        {"steal_fraction": 1.5},
        {"min_steal_activations": 0},
        {"fragmentation_factor": 0},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionParams(**kwargs)

    def test_every_field_has_a_reason_row_in_architecture(self):
        # A knob needs a stated reason to exist: ARCHITECTURE has one
        # subsection per spec type and one row per field of it, no more
        # and no fewer.
        text = (Path(__file__).resolve().parent.parent
                / "ARCHITECTURE.md").read_text()
        section = text.split("## Why each spec field stays")[1]
        section = section.split("\n## ")[0]
        parts = re.split(r"^### `(\w+)`.*$", section, flags=re.MULTILINE)
        names = parts[1::2]
        assert len(names) == len(set(names)), "a type has two subsections"
        types = spec_types()
        assert set(names) == {tp.__name__ for tp in types}
        for name, body in zip(names, parts[2::2]):
            rows = re.findall(r"^\| `(\w+)` \|", body, flags=re.MULTILINE)
            assert len(rows) == len(set(rows)), f"{name}: a field has two rows"
            tp = next(tp for tp in types if tp.__name__ == name)
            assert set(rows) == {f.name for f in dataclasses.fields(tp)}, name


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

class TestActivations:
    def test_trigger_activation(self):
        act = TriggerActivation(op_id=1, disk_id=0, pages=4, tuples=300)
        assert act.is_trigger
        assert act.nbytes == 64

    def test_data_activation_bytes(self):
        act = DataActivation(op_id=2, group=(0, 1), tuples=64, tuple_size=100)
        assert not act.is_trigger
        assert act.nbytes == 6400


# ---------------------------------------------------------------------------
# OperatorQueueSet
# ---------------------------------------------------------------------------

def _data(op_id=5, tuples=10):
    return DataActivation(op_id=op_id, group=(0, 0), tuples=tuples)


def contents(queue_set, index):
    """What queue ``index`` of the set holds, oldest first."""
    return list(islice(queue_set.items[index], queue_set.heads[index], None))


class TestQueue:
    """One member queue, addressed as ``(queue set, index)``."""

    def test_fifo_order(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=4)
        a = _data(tuples=1)
        b = _data(tuples=2)
        qs.push(1, a)
        qs.push(1, b)
        assert qs.pop(1) is a
        assert qs.pop(1) is b

    def test_capacity_enforced(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=2)
        qs.push(0, _data())
        qs.push(0, _data())
        assert qs.is_full(0)
        assert not qs.is_full(1)
        with pytest.raises(QueueFull):
            qs.push(0, _data())

    def test_force_push_exceeds_capacity(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=2)
        for _ in range(2):
            qs.push(0, _data())
        qs.push(0, _data(), force=True)
        assert qs.size(0) == 3

    def test_wrong_operator_rejected(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=2)
        with pytest.raises(ValueError):
            qs.push(0, _data(op_id=6))

    def test_bytes_accounting(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=4)
        qs.push(0, _data(tuples=10))
        assert qs.bytes_queued[0] == 1000
        qs.pop(0)
        assert qs.bytes_queued[0] == 0

    def test_steal_takes_newest_preserving_order(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=8)
        items = [_data(tuples=i + 1) for i in range(5)]
        for item in items:
            qs.push(0, item)
        stolen = qs.steal_from(0, 2)
        assert stolen == items[3:]
        assert qs.pop(0) is items[0]

    def test_steal_bounded_by_length(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=8)
        qs.push(0, _data())
        assert len(qs.steal_from(0, 10)) == 1


class TestOperatorQueueSet:
    def test_non_empty_count_maintained(self):
        qs = OperatorQueueSet(5, 0, thread_count=3, capacity=4)
        assert qs._non_empty == 0
        qs.push(0, _data())
        qs.push(0, _data())
        qs.push(2, _data())
        assert qs._non_empty == 2
        qs.pop(0)
        assert qs._non_empty == 2
        qs.pop(0)
        assert qs._non_empty == 1
        assert qs.has_work

    def test_a_blocked_operator_queues_work_that_selection_skips(self):
        """Section 3.1: a blocked operator's activations "cannot be
        consumed but they can still be produced".  The runtime's flag is
        the one blocked state: the queue set keeps none."""
        plan, config = pipeline_chain_scenario(nodes=1, processors_per_node=2,
                                               base_tuples=400, chain_joins=1)
        context = QueryExecutor(plan, config, strategy="DP").launch(
            Substrate(config, ExecutionParams()))
        probe = next(r for r in context.ops.values() if r.kind is OpKind.PROBE)
        assert probe.blocked
        for runtime in context.ops.values():
            runtime.terminated = runtime is not probe
        queue_set = context.nodes[0].queue_sets[probe.op_id]
        queue_set.push(0, DataActivation(op_id=probe.op_id, group=(0, 0),
                                         tuples=5))
        thread = context.nodes[0].threads[0]
        assert thread._select() is None
        probe.blocked = False
        assert thread._select()[1] == 0
        assert not hasattr(queue_set, "blocked")
        assert not hasattr(queue_set, "set_blocked")

    def test_on_push_callback(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=4)
        seen = []
        qs.on_push = lambda queue_set, index: seen.append((queue_set, index))
        qs.push(1, _data())
        qs.seed(0, (TriggerActivation(op_id=5, disk_id=0, pages=1, tuples=1),)
                * 3)
        assert seen == [(qs, 1), (qs, 0)]

    def test_first_non_empty_circular(self):
        qs = OperatorQueueSet(5, 0, thread_count=4, capacity=4)
        qs.push(1, _data())
        # Starting at 2, the scan wraps around to 1.
        assert qs.first_non_empty(2) == 1
        assert qs.first_non_empty(0) == 1
        assert qs.first_non_empty(1) == 1

    def test_first_non_empty_none_when_empty(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=4)
        assert qs.first_non_empty(0) is None

    def test_steal_from_updates_count(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=8)
        for _ in range(4):
            qs.push(0, _data())
        stolen = qs.steal_from(0, 4)
        assert len(stolen) == 4
        assert qs._non_empty == 0


#: one step on a queue set of three queues: (op, queue index, argument).
#: ``push`` takes a tuple count (negative: forced), ``seed`` a trigger
#: count, ``steal`` a batch size.
QUEUE_STEPS = st.lists(st.tuples(
    st.sampled_from(["push", "seed", "pop", "steal"]), st.integers(0, 2),
    st.integers(-5, 5)), max_size=60)


@given(QUEUE_STEPS)
def test_a_queue_owns_storage_exactly_while_it_holds_work(steps):
    """The queue set against plain deques: every step keeps the same
    contents, bounds, byte counts and non-empty count, and a queue's
    storage follows the rule for both forms: an empty queue shares the
    one empty tuple; a seed into an empty queue keeps the seeded tuple
    itself, with a cursor at its first unpopped trigger, for as long as
    only pops touch it; any other queue holding work owns a deque."""
    capacity = 3
    qs = OperatorQueueSet(5, 0, thread_count=3, capacity=capacity)
    model = [deque() for _ in qs.items]
    #: per queue: the seeded tuple it should still hold, else None.
    runs = [None for _ in qs.items]
    for op, index, arg in steps:
        ref = model[index]
        if op == "push":
            activation = _data(tuples=abs(arg) + 1)
            if len(ref) >= capacity and arg >= 0:
                with pytest.raises(QueueFull):
                    qs.push(index, activation)
            else:
                qs.push(index, activation, force=arg < 0)
                ref.append(activation)
                runs[index] = None
        elif op == "seed" and arg > 0:
            triggers = tuple(TriggerActivation(op_id=5, disk_id=0, pages=1,
                                               tuples=1) for _ in range(arg))
            runs[index] = None if ref else triggers
            qs.seed(index, triggers)
            ref.extend(triggers)
        elif op == "pop":
            if ref:
                assert qs.pop(index) is ref.popleft()
            else:
                with pytest.raises(IndexError):
                    qs.pop(index)
        elif op == "steal":
            stolen = qs.steal_from(index, abs(arg))
            expected = [ref.pop() for _ in range(min(abs(arg), len(ref)))]
            assert stolen == expected[::-1]
            if expected:
                runs[index] = None
        for index, (ref, run) in enumerate(zip(model, runs)):
            if not ref:
                assert qs.items[index] is queues_module._EMPTY
                assert qs.heads[index] == 0
            elif run is not None:
                assert qs.items[index] is run
                assert qs.heads[index] == len(run) - len(ref)
            else:
                assert isinstance(qs.items[index], deque)
                assert qs.heads[index] == 0
            assert qs.size(index) == len(ref)
            assert contents(qs, index) == list(ref)
            assert qs.peek(index) is (ref[0] if ref else None)
            assert qs.is_full(index) is (len(ref) >= capacity)
            assert qs.bytes_queued[index] == sum(a.nbytes for a in ref)
        assert qs._non_empty == sum(1 for ref in model if ref)
    with pytest.raises(ValueError):
        qs.push(0, _data(op_id=6), force=True)


def _launched_chain():
    """A launched, not yet run, DP context on a 4x8 pipeline chain, and
    its template."""
    plan, config = pipeline_chain_scenario(nodes=4, processors_per_node=8)
    params = ExecutionParams()
    template = ExecutionTemplate(plan, config, params)
    context = QueryExecutor(plan, config, strategy="DP", params=params,
                            template=lambda: template).launch(
        Substrate(config, params))
    return context, template


def _queue_slots(context):
    return [(queue_set, index) for node in context.nodes
            for queue_set in node.queue_sets.values()
            for index in range(len(queue_set.items))]


def test_after_launch_only_the_seeded_queues_own_storage():
    """Each seeded queue holds its share of the template's triggers — the
    very tuple, cursor at its start — and every other queue shares the
    empty tuple: launch allocates no queue storage at all."""
    context, template = _launched_chain()
    shares = {id(share): share for _op_id, seeds in template.scans
              for seed in seeds for share in seed.shares if share}
    slots = _queue_slots(context)
    owners = [(qs, index) for qs, index in slots if qs.size(index)]
    for qs, index in owners:
        assert shares.get(id(qs.items[index])) is qs.items[index]
        assert qs.heads[index] == 0
        assert all(activation.is_trigger
                   for activation in contents(qs, index))
    assert all(qs.items[index] is queues_module._EMPTY
               for qs, index in slots if not qs.size(index))
    assert sorted(id(qs.items[index]) for qs, index in owners) == sorted(shares)
    assert 0 < len(owners) < len(slots)


def test_launch_allocates_no_object_per_operator_and_thread():
    """A queue is slots of its set's lists, not an object: of no type
    does a launch make as many instances as it makes queues (operators x
    nodes x threads), every empty slot is the one empty tuple, and each
    node's queue sets share one bound arrival hook."""
    plan, config = pipeline_chain_scenario(nodes=4, processors_per_node=8)
    params = ExecutionParams()
    template = ExecutionTemplate(plan, config, params)
    executor = QueryExecutor(plan, config, strategy="DP", params=params,
                             template=lambda: template)
    substrate = Substrate(config, params)
    gc.collect()
    before = gc.get_objects()  # held, so no id is reused meanwhile
    seen = {id(obj) for obj in before}
    context = executor.launch(substrate)
    made = Counter(type(obj).__name__ for obj in gc.get_objects()
                   if id(obj) not in seen)
    queues = sum(len(node.queue_sets) for node in context.nodes) * 8
    assert {kind: count for kind, count in made.items()
            if count >= queues} == {}
    slots = _queue_slots(context)
    assert len(slots) == queues
    assert all(qs.items[index] is queues_module._EMPTY
               for qs, index in slots if not qs.size(index))
    # A node's arrival hook is bound once, not once per queue set.
    for node in context.nodes:
        hooks = {id(qs.on_push) for qs in node.queue_sets.values()}
        assert len(hooks) == 1
    del before


def test_execution_records_have_no_instance_dict():
    metrics = ExecutionMetrics()
    result = ExecutionResult("plan", "DP", "4x8", 1.0, metrics)
    completion = QueryCompletion(0, "plan", "DP", 0.0, 0.5, 1.5, result)
    for record in (metrics, result, completion):
        assert not hasattr(record, "__dict__"), type(record).__name__


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------

class TestRouter:
    def test_cells_enumeration(self):
        cells = consumer_cells([1, 0], threads_per_node=2)
        assert cells == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_uniform_weights_without_skew(self):
        import random
        cells = consumer_cells([0, 1], 2)
        router = Router(cells, buckets=64, theta=0.0, rng=random.Random(0))
        assert router.weights == pytest.approx([0.25] * 4)

    def test_skew_concentrates_weight(self):
        import random
        cells = consumer_cells([0, 1], 4)
        flat = Router(cells, 64, theta=0.0, rng=random.Random(0))
        skewed = Router(cells, 64, theta=1.0, rng=random.Random(0))
        assert max(skewed.weights) > max(flat.weights)

    def test_high_fragmentation_smooths_mild_skew(self):
        """More buckets -> flatter group weights (the Section 3.1 argument)."""
        import random
        cells = consumer_cells([0, 1], 4)
        coarse = Router(cells, buckets=8, theta=0.5, rng=random.Random(1))
        fine = Router(cells, buckets=1024, theta=0.5, rng=random.Random(1))
        assert max(fine.weights) < max(coarse.weights)

    def test_weights_sum_to_one(self):
        import random
        cells = consumer_cells([0, 1, 2], 4)
        router = Router(cells, 128, theta=0.7, rng=random.Random(2))
        assert sum(router.weights) == pytest.approx(1.0)

    def test_empty_cells_rejected(self):
        import random
        with pytest.raises(ValueError):
            Router([], 8, 0.0, random.Random(0))


# ---------------------------------------------------------------------------
# HashTableStore
# ---------------------------------------------------------------------------

def probe_table(store, join_id, group):
    """The table a probe of ``group`` reads on the store's node: the local
    build for a local group, else the installed copy of a stolen one."""
    key = (join_id, group)
    return store._built.get(key) or store._copies.get(key)


class TestHashTableStore:
    def _store(self):
        machine = Machine(MachineConfig(nodes=1, processors_per_node=2))
        return HashTableStore(machine.node(0)), machine.node(0)

    def test_insert_accumulates_and_charges_memory(self):
        store, node = self._store()
        store.insert(1, (0, 0), tuples=10, tuple_size=100)
        store.insert(1, (0, 0), tuples=5, tuple_size=100)
        table = store.local_table(1, (0, 0))
        assert table.tuples == 15
        assert table.nbytes == 1500
        assert node.used == 1500

    def test_table_bytes_zero_for_unknown_group(self):
        store, _ = self._store()
        assert store.table_bytes(1, (0, 3)) == 0

    def test_probe_table_prefers_local(self):
        store, _ = self._store()
        store.insert(1, (0, 0), 10, 100)
        assert probe_table(store, 1, (0, 0)).tuples == 10

    def test_install_copy_and_cache_check(self):
        store, node = self._store()
        assert not store.has_copy(1, (2, 0))
        store.install_copy(1, (2, 0), tuples=20, nbytes=2000)
        assert store.has_copy(1, (2, 0))
        assert probe_table(store, 1, (2, 0)).tuples == 20
        assert node.used == 2000

    def test_double_install_rejected(self):
        store, _ = self._store()
        store.install_copy(1, (2, 0), 1, 100)
        with pytest.raises(ValueError):
            store.install_copy(1, (2, 0), 1, 100)

    def test_release_join_frees_memory(self):
        store, node = self._store()
        store.insert(1, (0, 0), 10, 100)
        store.insert(2, (0, 1), 10, 100)
        store.install_copy(1, (3, 0), 5, 500)
        released = store.release_join(1)
        assert released == 1500
        assert node.used == 1000
        assert probe_table(store, 1, (0, 0)) is None
        assert store.local_table(2, (0, 1)) is not None

    def test_total_bytes(self):
        store, _ = self._store()
        store.insert(1, (0, 0), 10, 100)
        store.install_copy(2, (1, 0), 5, 500)
        assert store.total_bytes() == 1500
