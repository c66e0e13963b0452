"""The thread-time ledger: every thread's four slots sum to its lifetime.

A thread is suspended at three points only — a CPU charge, a wait on
its asynchronous reads, a park with nothing to run — and each fills its
:class:`~repro.engine.metrics.ThreadTime` slot, so ``cpu +
cpu_contention + io_wait + no_work`` is the thread's exit instant minus
its start, under DP, FP and SP and every CPU discipline, alone or
sharing a machine.  The thread lists are kept at launch (collect tears
the context down); a DP / FP thread's exit instant comes from a callback
on its process, an SP thread's from the execution's ``finished`` event
(its slot lives from launch to the last chain's barrier).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.catalog import SkewSpec
from repro.engine import ExecutionParams, QueryExecutor, Substrate
from repro.optimizer import best_bushy_trees, compile_plan
from repro.query import QueryGenerator, QueryGeneratorConfig
from repro.serving import BATCH, INTERACTIVE
from repro.sim import MachineConfig, RandomStreams

#: relative tolerance of the law: each slot is a float sum of its spans.
REL = 1e-9


def random_plan(seed: int, relations: int, config: MachineConfig):
    generator = QueryGenerator(
        RandomStreams(seed),
        QueryGeneratorConfig(relations_per_query=relations, scale=0.002),
    )
    graph = generator.generate(0)
    tree = best_bushy_trees(graph, k=1)[0]
    return compile_plan(graph, tree, config, label=f"ledger-{seed}")


def launch(executor, substrate, query_id=0, service_class=None):
    """Launch ``executor`` and collect it when its ``finished`` fires (as
    the coordinator does); returns ``(spans, results)``: one ``[thread,
    start, exit]`` per thread, and the one-element result list."""
    env = substrate.env
    execution = executor.launch(substrate, query_id, service_class)
    start = env.now
    results = []
    if executor.strategy_name == "SP":
        spans = [[thread, start, None] for thread in execution.threads]

        def close_all(_event):
            for span in spans:
                span[2] = env.now
        execution.finished.callbacks.append(close_all)
    else:
        spans = []
        for node in execution.nodes:
            for thread in node.threads:
                span = [thread, start, None]
                spans.append(span)
                thread.process.callbacks.append(
                    lambda _p, span=span: span.__setitem__(2, env.now))
    execution.finished.callbacks.append(
        lambda _event: results.append(executor.collect(execution)))
    return spans, results


def slots(thread) -> tuple:
    return (thread.cpu, thread.cpu_contention, thread.io_wait,
            thread.no_work)


def left_fold(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def run_case(strategy, nodes, procs, discipline, seed, relations, shared,
             delay=0.0):
    """Run one query (two sharing the machine when ``shared``, the second
    launched ``delay`` later) and check the law on every thread; returns
    every thread's slots, each query's collected metrics and the
    machine's CPU preemption count."""
    if strategy == "SP":
        nodes = 1
    config = MachineConfig(nodes=nodes, processors_per_node=procs)
    params = ExecutionParams(skew=SkewSpec.uniform_redistribution(0.5),
                             seed=seed, cpu_discipline=discipline)
    substrate = Substrate(config, params, strict_memory=not shared)
    executors = [QueryExecutor(random_plan(seed, relations, config), config,
                               strategy=strategy, params=params)]
    classes = [None]
    if shared:
        executors.append(QueryExecutor(
            random_plan(seed + 1, relations, config), config,
            strategy=strategy, params=params))
        classes = [BATCH, INTERACTIVE]
    launched = [launch(executors[0], substrate, 0, classes[0])]
    if shared:
        substrate.env.run(until=delay)
        launched.append(launch(executors[1], substrate, 1, classes[1]))
    substrate.env.run()
    substrate.close()
    preemptions = 0
    for row in substrate.processors:
        for processor in row:
            preemptions += processor.preemptions

    every_thread, metrics = [], []
    for spans, results in launched:
        assert len(results) == 1
        for thread, start, exit_time in spans:
            lifetime = exit_time - start
            assert lifetime > 0
            assert left_fold(slots(thread)) == pytest.approx(
                lifetime, rel=REL, abs=0.0)
            every_thread.append(slots(thread))
        # Collected on ``finished``, the fold already reads every slot
        # it folds as it stands once the environment has drained.
        threads = [thread for thread, _s, _e in spans]
        m = results[0].metrics
        assert m.thread_count == len(threads)
        assert m.thread_busy_time == left_fold(t.cpu for t in threads)
        assert m.thread_io_wait_time == left_fold(t.io_wait for t in threads)
        assert m.thread_no_work_time == left_fold(t.no_work for t in threads)
        metrics.append(m)
    return every_thread, metrics, preemptions


@given(
    seed=st.integers(0, 500),
    relations=st.integers(min_value=2, max_value=4),
    strategy=st.sampled_from(["DP", "FP", "SP"]),
    nodes=st.integers(min_value=2, max_value=3),
    procs=st.integers(min_value=1, max_value=3),
    discipline=st.sampled_from(["fifo", "fair", "priority"]),
    shared=st.booleans(),
    delay=st.sampled_from([0.0, 0.01]),
)
@example(seed=3, relations=3, strategy="DP", nodes=2, procs=2,
         discipline="priority", shared=True, delay=0.01)
@example(seed=4, relations=3, strategy="SP", nodes=1, procs=3,
         discipline="fair", shared=True, delay=0.0)
@example(seed=5, relations=4, strategy="FP", nodes=3, procs=2,
         discipline="fifo", shared=True, delay=0.01)
@settings(max_examples=60, deadline=None)
def test_property_thread_slots_sum_to_lifetime(seed, relations, strategy,
                                               nodes, procs, discipline,
                                               shared, delay):
    run_case(strategy, nodes, procs, discipline, seed, relations, shared,
             delay)


@pytest.mark.parametrize("strategy,discipline", [
    ("DP", "fifo"), ("DP", "priority"), ("FP", "fair"), ("SP", "priority"),
])
def test_every_slot_fills_on_a_shared_machine(strategy, discipline):
    """The law is not vacuous: on a machine two queries share, every slot
    holds time (SP's ``no_work`` is the wait at a chain's barrier), and
    under ``priority`` charges are preempted mid-service."""
    every_thread, metrics, preemptions = run_case(
        strategy, 2, 2, discipline, seed=3, relations=3, shared=True)
    for index, name in enumerate(("cpu", "cpu_contention", "io_wait",
                                  "no_work")):
        assert left_fold(t[index] for t in every_thread) > 0, name
    assert left_fold(m.cpu_contention_time for m in metrics) > 0
    assert (preemptions > 0) == (discipline == "priority")


@pytest.mark.parametrize("strategy,nodes", [
    ("DP", 1), ("DP", 2), ("FP", 2), ("SP", 1),
])
def test_collect_on_finished_equals_collect_after_drain(strategy, nodes):
    """A lone query reads the same thread metrics whether it is collected
    on ``finished`` (the coordinator) or after the environment drained
    (``QueryExecutor.run``): ``finish`` closes every parked thread's
    ``no_work`` at the completion instant, and a charge still in flight
    then (on one node, where end detection sends no message, an idle
    signal is) has its ``cpu`` counted already."""
    config = MachineConfig(nodes=nodes, processors_per_node=3)
    plan = random_plan(11, 4, config)
    executor = QueryExecutor(plan, config, strategy=strategy)
    substrate = Substrate(config, executor.params)
    _spans, results = launch(executor, substrate)
    substrate.env.run()
    substrate.close()
    drained = QueryExecutor(plan, config, strategy=strategy).run().metrics
    on_finished = results[0].metrics
    fields = ("thread_count", "thread_busy_time", "cpu_contention_time",
              "thread_io_wait_time", "thread_no_work_time")
    assert ([getattr(on_finished, f) for f in fields]
            == [getattr(drained, f) for f in fields])
    assert drained.thread_io_wait_time > 0
    if strategy != "SP":
        assert drained.thread_no_work_time > 0
