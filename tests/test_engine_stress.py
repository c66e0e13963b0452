"""Randomized end-to-end stress tests: random plans through the engine.

These are the repository's strongest property tests: arbitrary (small)
queries, shapes, machine configurations, skew and engine knobs must all
execute to completion with a valid termination order and exactly the
cardinalities of the ``exact_cardinalities`` fixture (``conftest.py``).
Each operator emits the floor of its analytic output for its total input
(``engine.opstate.batch_output``), so a query does the same work under
DP, FP and SP on every machine.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import run_query
from repro.catalog import SkewSpec
from repro.engine import ExecutionParams, QueryExecutor
from repro.optimizer import best_bushy_trees, compile_plan
from repro.query import QueryGenerator, QueryGeneratorConfig
from repro.sim import MachineConfig, RandomStreams


def random_plan(seed: int, relations: int, config: MachineConfig):
    generator = QueryGenerator(
        RandomStreams(seed),
        QueryGeneratorConfig(relations_per_query=relations, scale=0.002),
    )
    graph = generator.generate(0)
    tree = best_bushy_trees(graph, k=1)[0]
    return compile_plan(graph, tree, config, label=f"stress-{seed}")


@given(
    seed=st.integers(0, 1000),
    relations=st.integers(min_value=2, max_value=5),
    strategy=st.sampled_from(["DP", "FP", "SP"]),
    nodes=st.integers(min_value=1, max_value=3),
    procs=st.integers(min_value=1, max_value=4),
    theta=st.sampled_from([0.0, 0.5, 1.0]),
)
# Five relations with a small result: a tuple dropped anywhere shows.
@example(seed=140, relations=5, strategy="DP", nodes=3, procs=4, theta=1.0)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_random_plans_complete_and_conserve(
        exact_cardinalities, counters, run_with_end_times, respects_schedule,
        seed, relations, strategy, nodes, procs, theta):
    """Any plan completes, and does the same work on every machine, under
    every strategy and redistribution skew."""
    if strategy == "SP":
        nodes = 1  # SP is a single SM-node model
    config = MachineConfig(nodes=nodes, processors_per_node=procs)
    plan = random_plan(seed, relations, config)
    params = ExecutionParams(skew=SkewSpec.uniform_redistribution(theta),
                             seed=seed)
    result, end_times = run_with_end_times(
        QueryExecutor(plan, config, strategy=strategy, params=params))
    if strategy != "SP":  # SP's chains keep no per-operator end times
        # Completion with every operator terminated in schedule order.
        assert None not in end_times.values()
        assert len(end_times) == len(plan.operators)
        order = sorted(end_times, key=end_times.get)
        assert respects_schedule(plan.schedule, order)
    # Conservation: base tuples scanned exactly once, every operator's
    # output exactly the folded output rule.
    assert counters(result) == exact_cardinalities(plan)


@given(seed=st.integers(0, 200))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_strategies_agree_on_results(exact_cardinalities, counters,
                                              seed):
    expected = exact_cardinalities(
        random_plan(seed, 4, MachineConfig(nodes=1, processors_per_node=1))
    )
    for strategy, nodes in (("DP", 2), ("FP", 2), ("SP", 1)):
        config = MachineConfig(nodes=nodes, processors_per_node=2)
        plan = random_plan(seed, 4, config)
        result = QueryExecutor(plan, config, strategy=strategy).run()
        assert counters(result) == expected, strategy


@given(
    batch=st.sampled_from([16, 64, 256]),
    capacity=st.sampled_from([4, 16, 64]),
    window=st.sampled_from([1, 4]),
)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_engine_knobs_never_break_conservation(
        exact_cardinalities, counters, batch, capacity, window):
    config = MachineConfig(nodes=2, processors_per_node=2)
    plan = random_plan(7, 3, config)
    params = ExecutionParams(batch_size=batch, queue_capacity=capacity,
                             credit_window=window)
    result = QueryExecutor(plan, config, strategy="DP", params=params).run()
    # Batching, queue depth and flow control split the work differently;
    # none of them may change how much of it there is.
    assert counters(result) == exact_cardinalities(plan)


def test_run_query_convenience_wrapper():
    config = MachineConfig(nodes=1, processors_per_node=2)
    plan = random_plan(3, 3, config)
    result = run_query(plan, config, strategy="DP")
    assert result.response_time > 0
    assert result.strategy == "DP"
