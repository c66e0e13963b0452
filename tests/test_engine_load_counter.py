"""The machine's per-node load counter against the summed queue sets.

``Substrate.queued[n]`` is kept incrementally by every
:class:`~repro.engine.queues.OperatorQueueSet` mutation of a registered
context, so ``Substrate.node_load`` is O(1).  The model it must reproduce
is the sum kept *here* (:func:`reference_load`): every live context's
queued activations on node ``n``, re-added on each read.  The two are
compared at every point the load is read — each broker snapshot and each
steal offer — on a stealing multi-query run, an elastic run whose
queries span different node prefixes, and an overload run with retries
and memory preemption; after each run the counter is back to zero.  A
stolen batch installed into a query that has already finished is no
machine load.
"""

from pathlib import Path

import pytest

import repro
from repro.api import ScenarioSpec, replace_path
from repro.engine import ExecutionParams, QueryExecutor, Substrate
from repro.engine.activation import DataActivation
from repro.engine.queues import OperatorQueueSet
from repro.engine.scheduler import NodeScheduler
from repro.optimizer.operator_tree import OpKind
from repro.serving.broker import CrossQueryBroker
from repro.sim import MachineConfig
from repro.workloads import pipeline_chain_scenario

REPO = Path(__file__).resolve().parent.parent


def reference_load(substrate, node_id):
    """The load of ``node_id`` summed over the live contexts."""
    return sum(
        context.nodes[node_id].total_queued_activations()
        for context in substrate.contexts
        if node_id < len(context.nodes)
    )


def assert_counter_matches(substrate):
    expected = [reference_load(substrate, n)
                for n in range(substrate.config.nodes)]
    assert substrate.queued == expected
    assert [substrate.node_load(n)
            for n in range(substrate.config.nodes)] == expected


@pytest.fixture
def audited(monkeypatch):
    """Check the counter at every broker snapshot and steal offer; collect
    every substrate built and what was seen."""
    seen = {"substrates": [], "snapshots": 0, "offers": 0, "installs": 0,
            "context_sizes": set()}

    init = Substrate.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen["substrates"].append(self)

    snapshot = CrossQueryBroker._load_snapshot

    def checked_snapshot(self):
        assert_counter_matches(self.substrate)
        seen["snapshots"] += 1
        seen["context_sizes"].update(len(c.nodes)
                                     for c in self.substrate.contexts)
        return snapshot(self)

    on_starving = NodeScheduler._on_starving

    def checked_offer(self, message):
        assert_counter_matches(self.context.substrate)
        seen["offers"] += 1
        return on_starving(self, message)

    install = NodeScheduler._install_stolen

    def counted_install(self, payload):
        seen["installs"] += 1
        return install(self, payload)

    monkeypatch.setattr(Substrate, "__init__", recording_init)
    monkeypatch.setattr(CrossQueryBroker, "_load_snapshot", checked_snapshot)
    monkeypatch.setattr(NodeScheduler, "_on_starving", checked_offer)
    monkeypatch.setattr(NodeScheduler, "_install_stolen", counted_install)
    return seen


def run_scenario(path, **overrides):
    spec = ScenarioSpec.from_json((REPO / path).read_text())
    for dotted, value in overrides.items():
        spec = replace_path(spec, dotted.replace("__", "."), value)
    return repro.run(spec)


def assert_drained(seen):
    assert seen["substrates"]
    for substrate in seen["substrates"]:
        assert substrate.contexts == []
        assert substrate.queued == [0] * substrate.config.nodes


def test_stealing_multi_query_run(audited):
    run_scenario("benchmarks/ledger/workloads/mix_mpl8.json",
                 workload__queries=4)
    assert audited["snapshots"] > 0 and audited["offers"] > 0
    assert audited["installs"] > 0  # steal_from and _install_stolen ran
    assert_drained(audited)


def test_elastic_run_with_contexts_on_node_prefixes(audited):
    run_scenario("examples/scenarios/elastic_surge.json",
                 workload__queries=8)
    assert audited["snapshots"] > 0 and audited["offers"] > 0
    # Queries planned on 2 nodes and on more were each live at some read.
    assert len(audited["context_sizes"]) > 1
    assert_drained(audited)


def test_overload_run_with_retries_and_preemption(audited):
    run_scenario("examples/scenarios/overload_retry.json",
                 workload__queries=8)
    assert audited["snapshots"] > 0 and audited["offers"] > 0
    assert_drained(audited)


def test_a_stolen_batch_installed_after_finish_is_no_load():
    config = MachineConfig(nodes=2, processors_per_node=2)
    plan, _ = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                      base_tuples=400, chain_joins=1)
    substrate = Substrate(config, ExecutionParams())
    executor = QueryExecutor(plan, config, strategy="DP")
    context = executor.launch(substrate)
    substrate.env.run()
    assert context.done and substrate.queued == [0, 0]
    node = context.nodes[0]
    # Held as a pending install would hold it: ``collect`` tears a
    # drained context down, and the node lets go of its scheduler.
    scheduler = node.scheduler
    executor.collect(context)
    assert node.scheduler is None

    probe = next(r for r in context.ops.values() if r.kind is OpKind.PROBE
                 and 0 in r.home)
    batch = [DataActivation(op_id=probe.op_id, group=(1, 0), tuples=10,
                            remote=True, src_node=1) for _ in range(3)]
    scheduler._install_stolen({
        "op_id": probe.op_id, "join_id": probe.op.join_id, "group": (1, 0),
        "activations": batch, "hash_info": None,
    })
    # The finished query holds the batch; the machine does not count it.
    assert node.queue_sets[probe.op_id]._queued == 3
    assert substrate.queued == [0, 0]
    assert [substrate.node_load(n) for n in range(2)] == [0, 0]


def test_a_finished_query_takes_its_leftovers_with_it():
    config = MachineConfig(nodes=2, processors_per_node=2)
    plan, _ = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                      base_tuples=400, chain_joins=1)
    substrate = Substrate(config, ExecutionParams())
    context = QueryExecutor(plan, config, strategy="DP").launch(substrate)
    seeded = list(substrate.queued)
    assert sum(seeded) > 0
    assert seeded == [reference_load(substrate, n) for n in range(2)]
    # Finish it by hand with its triggers still queued.
    context.finish()
    assert substrate.queued == [0, 0]
    scan = next(r for r in context.ops.values() if r.kind is OpKind.SCAN)
    queue_set = context.nodes[0].queue_sets[scan.op_id]
    queue_set.pop(queue_set.first_non_empty(0))
    assert substrate.queued == [0, 0]


def test_every_queue_set_mutation_moves_the_machine_counter():
    load = [0, 0, 0]
    queue_set = OperatorQueueSet(1, 2, thread_count=2, capacity=4, load=load)
    batch = [DataActivation(op_id=1, group=(2, 0), tuples=1)
             for _ in range(5)]
    queue_set.push(0, batch[0])
    queue_set.seed(1, batch[1:4])
    assert load == [0, 0, 4]
    queue_set.pop(0)
    assert load == [0, 0, 3]
    assert len(queue_set.steal_from(1, 2)) == 2
    assert load == [0, 0, 1] and queue_set._queued == 1
    queue_set.detach_load()
    queue_set.push(0, batch[4])
    assert load == [0, 0, 1] and queue_set._queued == 2
    # A set built outside any machine counts into a private list.
    alone = OperatorQueueSet(1, 0, thread_count=1, capacity=4)
    alone.push(0, DataActivation(op_id=1, group=(0, 0), tuples=1))
    assert load == [0, 0, 1] and alone._queued == 1
