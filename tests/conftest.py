"""Shared test configuration: fixed hypothesis profiles.

Two profiles:

* ``dev`` (default) — hypothesis's usual randomized exploration, with
  deadlines off (simulation runs have legitimate long tails);
* ``ci`` — fully derandomized: examples are derived from the test
  structure only, so CI runs are reproducible byte-for-byte.  Selected
  with ``HYPOTHESIS_PROFILE=ci`` (the GitHub Actions workflow and
  ``make check`` do this).

It also holds the engine's test-side tuple reference,
``exact_cardinalities`` and ``counters``, and ``run_with_end_times``
(each operator's termination instant beside a lone run's result), as
session fixtures.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.engine import Substrate
from repro.optimizer import OpKind

settings.register_profile(
    "dev",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


COUNTERS = ("tuples_scanned", "tuples_built", "tuples_probed", "result_tuples")


def _emitted(op, n: int) -> int:
    """The output rule for a total input of ``n``: the analytic output's
    floor, multiplied before dividing so an integral output stays one."""
    if op.input_cardinality <= 0:
        return 0
    return int(n * op.output_cardinality / op.input_cardinality)


def _exact_cardinalities(plan) -> dict[str, int]:
    """The tuple counters every execution of ``plan`` must report.

    Folds the output rule over the operator tree: a scan's input is its
    relation, any other operator's is its pipelined producer's output.
    """
    tree = plan.operators

    def tuples_in(op) -> int:
        if op.kind is OpKind.SCAN:
            return op.relation.cardinality
        (producer_id,) = tree.pipeline_producers(op.op_id)
        producer = tree.op(producer_id)
        return _emitted(producer, tuples_in(producer))

    root = tree.op(tree.root_id)
    return {
        "tuples_scanned": sum(tuples_in(op) for op in tree.scans()),
        "tuples_built": sum(tuples_in(op) for op in tree.builds()),
        "tuples_probed": sum(tuples_in(op) for op in tree.probes()),
        "result_tuples": _emitted(root, tuples_in(root)),
    }


@pytest.fixture(scope="session")
def exact_cardinalities():
    """``plan -> {counter: tuples}`` every execution of the plan reports."""
    return _exact_cardinalities


@pytest.fixture(scope="session")
def counters():
    """``result -> {counter: tuples}`` as the execution reported them."""
    return lambda result: {name: getattr(result.metrics, name)
                           for name in COUNTERS}


def _respects_schedule(schedule, order) -> bool:
    """Whether ``order`` (a termination order) respects ``schedule``: in
    any valid execution, every operator's predecessors terminate before
    it does."""
    position = {op_id: i for i, op_id in enumerate(order)}
    for op_id, preds in schedule.predecessors.items():
        if op_id not in position:
            return False
        for pred in preds:
            if pred not in position or position[pred] >= position[op_id]:
                return False
    return True


@pytest.fixture(scope="session")
def respects_schedule():
    """``(schedule, termination order) -> bool``."""
    return _respects_schedule


def _run_with_end_times(executor):
    """Run ``executor`` alone, as ``QueryExecutor.run`` does, and return
    its result with ``{op_id: termination_time}`` read off the execution's
    operator runtimes (empty under SP, which has none)."""
    substrate = Substrate(executor.config, executor.params)
    execution = executor.launch(substrate)
    substrate.env.run()
    assert execution.done, "the simulation drained before completion"
    result = executor.collect(execution)
    substrate.close()
    return result, {op_id: runtime.termination_time
                    for op_id, runtime in execution.ops.items()}


@pytest.fixture(scope="session")
def run_with_end_times():
    """``executor -> (result, {op_id: termination_time})``."""
    return _run_with_end_times
