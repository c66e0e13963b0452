"""Unit tests for engine building blocks: activations, queues, routing, tables."""

import dataclasses
import re
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import ExecutionParams, QueryExecutor, Substrate
from repro.engine.activation import DataActivation, TriggerActivation
from repro.engine.metrics import (ExecutionMetrics, ExecutionResult,
                                  QueryCompletion)
from repro.engine import queues as queues_module
from repro.engine.queues import ActivationQueue, OperatorQueueSet, QueueFull
from repro.engine.routing import Router, consumer_cells
from repro.engine.tables import HashTableStore
from repro.engine.template import ExecutionTemplate
from repro.sim import Machine, MachineConfig
from repro.workloads import pipeline_chain_scenario


# ---------------------------------------------------------------------------
# ExecutionParams
# ---------------------------------------------------------------------------

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
        # A knob needs a stated reason to exist: ARCHITECTURE's table has
        # one row per field, no more and no fewer.
        text = (Path(__file__).resolve().parent.parent
                / "ARCHITECTURE.md").read_text()
        section = text.split("## Why each `ExecutionParams` field stays")[1]
        section = section.split("\n## ")[0]
        rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert len(rows) == len(set(rows)), "a field has two rows"
        fields = {f.name for f in dataclasses.fields(ExecutionParams)}
        assert set(rows) == fields


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
# ActivationQueue / OperatorQueueSet
# ---------------------------------------------------------------------------

def _data(op_id=5, tuples=10):
    return DataActivation(op_id=op_id, group=(0, 0), tuples=tuples)


class TestActivationQueue:
    def test_fifo_order(self):
        queue = ActivationQueue(5, 0, 0, capacity=4)
        a = _data(tuples=1)
        b = _data(tuples=2)
        queue.push(a)
        queue.push(b)
        assert queue.pop() is a
        assert queue.pop() is b

    def test_capacity_enforced(self):
        queue = ActivationQueue(5, 0, 0, capacity=2)
        queue.push(_data())
        queue.push(_data())
        assert queue.is_full
        with pytest.raises(QueueFull):
            queue.push(_data())

    def test_force_push_exceeds_capacity(self):
        queue = ActivationQueue(5, 0, 0, capacity=2)
        for _ in range(2):
            queue.push(_data())
        queue.push(_data(), force=True)
        assert len(queue) == 3

    def test_wrong_operator_rejected(self):
        queue = ActivationQueue(5, 0, 0, capacity=2)
        with pytest.raises(ValueError):
            queue.push(_data(op_id=6))

    def test_bytes_accounting(self):
        queue = ActivationQueue(5, 0, 0, capacity=4)
        queue.push(_data(tuples=10))
        assert queue.bytes_queued == 1000
        queue.pop()
        assert queue.bytes_queued == 0

    def test_pop_tail_batch_takes_newest_preserving_order(self):
        queue = ActivationQueue(5, 0, 0, capacity=8)
        items = [_data(tuples=i + 1) for i in range(5)]
        for item in items:
            queue.push(item)
        stolen = queue.pop_tail_batch(2)
        assert stolen == items[3:]
        assert queue.pop() is items[0]

    def test_pop_tail_batch_bounded_by_length(self):
        queue = ActivationQueue(5, 0, 0, capacity=8)
        queue.push(_data())
        assert len(queue.pop_tail_batch(10)) == 1


class TestOperatorQueueSet:
    def test_non_empty_count_maintained(self):
        qs = OperatorQueueSet(5, 0, thread_count=3, capacity=4)
        assert qs.non_empty_queues == 0
        qs.push(0, _data())
        qs.push(0, _data())
        qs.push(2, _data())
        assert qs.non_empty_queues == 2
        qs.pop(0)
        assert qs.non_empty_queues == 2
        qs.pop(0)
        assert qs.non_empty_queues == 1
        assert qs.has_work

    def test_blocked_propagates(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=4)
        qs.set_blocked(True)
        assert all(q.blocked for q in qs.queues)
        qs.set_blocked(False)
        assert not any(q.blocked for q in qs.queues)

    def test_on_push_callback(self):
        qs = OperatorQueueSet(5, 0, thread_count=2, capacity=4)
        seen = []
        qs.on_push = seen.append
        qs.push(1, _data())
        assert len(seen) == 1
        assert seen[0].thread_index == 1

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
        assert qs.non_empty_queues == 0


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
    model = [deque() for _ in qs.queues]
    #: per queue: the seeded tuple it should still hold, else None.
    runs = [None for _ in qs.queues]
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
        for queue, ref, run in zip(qs.queues, model, runs):
            if not ref:
                assert queue._items is queues_module._EMPTY
                assert queue._head == 0
            elif run is not None:
                assert queue._items is run
                assert queue._head == len(run) - len(ref)
            else:
                assert isinstance(queue._items, deque)
                assert queue._head == 0
            assert len(queue) == len(ref)
            assert list(queue) == list(ref)
            assert queue.peek() is (ref[0] if ref else None)
            assert queue.is_full is (len(ref) >= capacity)
            assert queue.bytes_queued == sum(a.nbytes for a in ref)
        assert qs.non_empty_queues == sum(1 for ref in model if ref)
    with pytest.raises(ValueError):
        qs.push(0, _data(op_id=6), force=True)


def test_after_launch_only_the_seeded_queues_own_storage():
    """Each seeded queue holds its share of the template's triggers — the
    very tuple, cursor at its start — and every other queue shares the
    empty tuple: launch allocates no queue storage at all."""
    plan, config = pipeline_chain_scenario(nodes=4, processors_per_node=8)
    params = ExecutionParams()
    template = ExecutionTemplate(plan, config, params)
    context = QueryExecutor(plan, config, strategy="DP", params=params,
                            template=lambda: template).launch(
        Substrate(config, params))
    shares = {id(share): share for _op_id, seeds in template.scans
              for seed in seeds for share in seed.shares if share}
    queues = [queue for node in context.nodes
              for queue_set in node.queue_sets.values()
              for queue in queue_set.queues]
    owners = [queue for queue in queues if len(queue)]
    for queue in owners:
        assert shares.get(id(queue._items)) is queue._items
        assert queue._head == 0
        assert all(activation.is_trigger for activation in queue)
    assert all(queue._items is queues_module._EMPTY for queue in queues
               if not len(queue))
    assert sorted(id(queue._items) for queue in owners) == sorted(shares)
    assert 0 < len(owners) < len(queues)


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
        assert skewed.max_cell_share > flat.max_cell_share

    def test_high_fragmentation_smooths_mild_skew(self):
        """More buckets -> flatter group weights (the Section 3.1 argument)."""
        import random
        cells = consumer_cells([0, 1], 4)
        coarse = Router(cells, buckets=8, theta=0.5, rng=random.Random(1))
        fine = Router(cells, buckets=1024, theta=0.5, rng=random.Random(1))
        assert fine.max_cell_share < coarse.max_cell_share

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
        assert store.probe_table(1, (0, 0)).tuples == 10

    def test_install_copy_and_cache_check(self):
        store, node = self._store()
        assert not store.has_copy(1, (2, 0))
        store.install_copy(1, (2, 0), tuples=20, nbytes=2000)
        assert store.has_copy(1, (2, 0))
        assert store.probe_table(1, (2, 0)).tuples == 20
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
        assert store.probe_table(1, (0, 0)) is None
        assert store.local_table(2, (0, 1)) is not None

    def test_total_bytes(self):
        store, _ = self._store()
        store.insert(1, (0, 0), 10, 100)
        store.install_copy(2, (1, 0), 5, 500)
        assert store.total_bytes() == 1500
