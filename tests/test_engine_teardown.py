"""A finished query and a single-query machine are freed by refcount.

Every execution ends through ``launch`` -> ``finished`` -> ``collect``, and
``collect`` closes the context: once its last tail — a woken thread, an
end detection, a message in flight, a steal shipment or install — has
exited, the context cuts the edges that made it a reference cycle.  A
machine built for one run (``QueryExecutor.run``, SP's private run, a
serving run's substrate) is closed by whoever built it.  So with the
cyclic collector disabled, nothing an execution owned is left for it.

The census runs the block under ``gc.disable()`` and then lists what one
``gc.collect()`` under ``DEBUG_SAVEALL`` finds: everything that only the
collector could free.
"""

import copy
import dataclasses
import gc
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.api import ScenarioSpec, replace_path
from repro.engine import ExecutionParams, QueryExecutor, Substrate
from repro.engine.activation import DataActivation
from repro.engine.context import ExecutionContext, NodeState
from repro.engine.queues import ActivationQueue
from repro.engine.routing import OutputChannel
from repro.engine.scheduler import NodeScheduler
from repro.engine.thread_exec import ExecutionThread
from repro.optimizer.operator_tree import OpKind
from repro.serving import (BATCH, INTERACTIVE, AdmissionPolicy,
                           MultiQueryCoordinator)
from repro.serving.preemption import MemoryPreemptor
from repro.sim import MachineConfig
from repro.sim.core import Process
from repro.sim.disk import Disk
from repro.sim.machine import Processor
from repro.workloads import pipeline_chain_scenario

REPO = Path(__file__).resolve().parent.parent

#: what a finished execution and a retired machine must leave to refcount.
TORN_DOWN = (ExecutionContext, NodeState, ExecutionThread, ActivationQueue,
             OutputChannel, Process, Processor, Disk)


@contextmanager
def cyclic_garbage():
    """Run the block with the collector off; on exit, fill the yielded
    list with the engine objects only the collector could free."""
    found = []
    gc.collect()
    gc.disable()
    try:
        yield found
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found.extend(type(obj).__name__ for obj in gc.garbage
                     if isinstance(obj, TORN_DOWN))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def scenario(path, **overrides):
    spec = ScenarioSpec.from_json((REPO / path).read_text())
    for dotted, value in overrides.items():
        spec = replace_path(spec, dotted, value)
    return spec


#: 50 queries through the serving stack: FIFO with stealing, priority and
#: fair CPU, shedding with retries, and an elastic run (whose steal offers
#: land on already finished queries).
SERVING_RUNS = [
    ("examples/scenarios/quickstart.json", {"workload.queries": 8}),
    ("examples/scenarios/service_classes.json", {"workload.queries": 8}),
    ("examples/scenarios/service_classes.json",
     {"workload.queries": 8, "params.cpu_discipline": "fair"}),
    ("examples/scenarios/overload_retry.json", {"workload.queries": 8}),
    ("examples/scenarios/elastic_surge.json", {"workload.queries": 16}),
]


def run_preemption_pair():
    """A batch query whose hash builds are spilled for an interactive one
    and resumed after it (the memory-preemption spill/resume path)."""
    config = MachineConfig(nodes=2, processors_per_node=2,
                           memory_per_processor=500_000)
    plan, _ = pipeline_chain_scenario(base_tuples=4000, chain_joins=3,
                                      config=config)
    policy = AdmissionPolicy(max_multiprogramming=4, memory_preemption=True,
                             queue_timeout=1.0)
    coordinator = MultiQueryCoordinator(config, policy=policy)
    env = coordinator.env

    def submit():
        coordinator.submit(plan, service_class=BATCH, query_id=0)
        yield env.timeout(0.12)
        coordinator.submit(plan, service_class=INTERACTIVE, query_id=1)
        coordinator.close_arrivals()

    env.process(submit(), name="submit")
    metrics = coordinator.run()
    coordinator.close()
    return metrics


class TestNoCyclicGarbage:
    def test_fifty_queries_through_the_serving_stack(self, monkeypatch):
        late = {"steal": 0, "resume": 0}
        deliver = NodeScheduler.deliver

        def counting_deliver(self, message):
            if self.context.done and message.kind in (
                    "starving", "offer", "acquire", "steal_data"):
                late["steal"] += 1
            return deliver(self, message)

        resume = MemoryPreemptor._resume_proc

        def counting_resume(self, pre):
            late["resume"] += 1
            return resume(self, pre)

        monkeypatch.setattr(NodeScheduler, "deliver", counting_deliver)
        monkeypatch.setattr(MemoryPreemptor, "_resume_proc", counting_resume)
        queries = 0
        with cyclic_garbage() as found:
            for path, overrides in SERVING_RUNS:
                metrics = repro.run(scenario(path, **overrides)).workload.metrics
                queries += metrics.completed
                assert metrics.completed > 0
            metrics = run_preemption_pair()
            assert metrics.memory_preemptions >= 1
            queries += metrics.completed
        assert queries == 50
        assert late["steal"] > 0 and late["resume"] > 0  # the tails did run
        assert found == []

    @pytest.mark.parametrize("discipline", ["fifo", "fair", "priority"])
    @pytest.mark.parametrize("strategy", ["DP", "FP", "SP"])
    def test_query_executor_run(self, strategy, discipline):
        nodes = 1 if strategy == "SP" else 2
        plan, config = pipeline_chain_scenario(
            nodes=nodes, processors_per_node=2, base_tuples=400,
            chain_joins=2)
        params = ExecutionParams(cpu_discipline=discipline,
                                 disk_discipline=discipline)
        with cyclic_garbage() as found:
            result = QueryExecutor(plan, config, strategy=strategy,
                                   params=params).run()
        assert result.metrics.result_tuples > 0
        assert found == []


def test_memory_does_not_depend_on_the_collector():
    """Twenty lone runs with the collector off hold no more than two."""
    plan, config = pipeline_chain_scenario(nodes=2, processors_per_node=4,
                                           base_tuples=2000, chain_joins=2)

    def run():
        QueryExecutor(plan, config).run()

    run()  # warm: lazy imports, plan-side caches
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for count in range(1, 21):
            run()
            if count == 2:
                after_two = tracemalloc.get_traced_memory()[0]
        after_twenty = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after_twenty - after_two < 1 << 20


def test_a_steal_that_lands_after_finish_holds_the_teardown():
    """A steal shipment still in flight when the query is collected: the
    teardown waits for its delivery and for the install it starts, which
    pushes into the finished query exactly as before."""
    config = MachineConfig(nodes=2, processors_per_node=2)
    plan, _ = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                      base_tuples=400, chain_joins=1)
    substrate = Substrate(config, ExecutionParams())
    executor = QueryExecutor(plan, config)
    context = executor.launch(substrate)
    probe = next(r for r in context.ops.values() if r.kind is OpKind.PROBE
                 and 0 in r.home)
    node = context.nodes[0]
    queue_set = node.queue_sets[probe.op_id]
    seen = {}

    def collect_with_a_shipment_in_flight(_event):
        batch = [DataActivation(op_id=probe.op_id, group=(1, 0), tuples=10,
                                remote=True, src_node=1) for _ in range(3)]
        context.network.send(1, 0, "steal_data", {
            "scope": None, "op_id": probe.op_id, "join_id": probe.op.join_id,
            "group": (1, 0), "activations": batch, "hash_info": None,
        }, nbytes=3000, purpose="loadbalance")
        seen["result"] = executor.collect(context)
        seen["snapshot"] = copy.deepcopy(seen["result"])
        seen["open"] = node.scheduler is not None

    context.finished.callbacks.append(collect_with_a_shipment_in_flight)
    substrate.env.run()
    assert seen["open"]                    # the teardown waited ...
    assert queue_set._queued == 3          # ... for the install to land
    assert node.scheduler is None and node.context is None
    assert context.network.in_flight == 0 and context._live == 0
    assert seen["result"] == seen["snapshot"]


def test_results_are_the_same_before_and_after_teardown(monkeypatch):
    spec = scenario("examples/scenarios/quickstart.json",
                    **{"workload.queries": 4})
    single = dataclasses.replace(spec, mode="single")
    torn_down = (repro.run(spec), repro.run(single))
    snapshots = []
    collect = QueryExecutor.collect

    def snapshotting_collect(self, context, queueing_delay=0.0):
        result = collect(self, context, queueing_delay)
        snapshots.append((result, copy.deepcopy(result)))
        return result

    monkeypatch.setattr(QueryExecutor, "collect", snapshotting_collect)
    assert (repro.run(spec), repro.run(single)) == torn_down
    assert len(snapshots) == 5
    for result, snapshot in snapshots:
        assert result == snapshot  # nothing the teardown cut reached it
    monkeypatch.setattr(ExecutionContext, "close", lambda self: None)
    assert (repro.run(spec), repro.run(single)) == torn_down
