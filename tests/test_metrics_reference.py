"""``WorkloadMetrics`` against a list-based reference model.

:class:`~repro.engine.metrics.WorkloadMetrics` folds each completion into
accumulators as it is recorded.  The model it must reproduce is the plain
one kept *here*: hold every completion in a list and compute each number
from the list when asked (:func:`reference_summary`, with explicit left
folds — builtin ``sum()`` of floats is Neumaier-compensated from Python
3.12 on and would make the reference interpreter-dependent).  Hypothesis
drives hand-built completion/shed streams through both; no simulator is
involved.

Also here: a recorded completion never changes afterwards, a golden
digest of a real run, and a guard that keeps ``sum()`` out of the module
(and out of three more on decision and report paths).
"""

import ast
import dataclasses
import hashlib
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.metrics as metrics_module
from repro.catalog import SkewSpec
from repro.engine import ExecutionParams
from repro.engine.metrics import (ExecutionMetrics, ExecutionResult,
                                  QueryCompletion, ShedRecord,
                                  WorkloadMetrics)
from repro.experiments.config import scaled_execution_params
from repro.serving import (BATCH, INTERACTIVE, AdmissionPolicy, ArrivalSpec,
                           WorkloadSpec)
from repro.serving.driver import WorkloadDriver
from repro.workloads import pipeline_chain_scenario

COUNTERS = ("unfinished", "broker_notifications", "memory_preemptions",
            "spill_bytes", "retries")


# -- the reference model -------------------------------------------------------


def left_fold(values, zero):
    for value in values:
        zero += value
    return zero


def mean(values):
    return left_fold(values, 0.0) / len(values) if values else 0.0


def nearest_rank(values, p):
    if not values:
        return 0.0
    return sorted(values)[max(1, math.ceil(p / 100.0 * len(values))) - 1]


def reason_counts(shed):
    return {reason: len([s for s in shed if s.reason == reason])
            for reason in sorted({s.reason for s in shed})}


def reference_summary(completions, shed, counters):
    """``WorkloadMetrics.summary()`` recomputed from the retained lists."""
    first = min((c.arrival_time for c in completions), default=0.0)
    last = max((c.completion_time for c in completions), default=0.0)
    makespan = max(0.0, last - first)

    def rate(count):
        return count / makespan if makespan > 0 else 0.0

    def counter(cs, name):
        return [getattr(c.result.metrics, name) for c in cs]

    per_class = {}
    names = {c.service_class for c in completions}
    for name in sorted(names | {s.service_class for s in shed}):
        cs = [c for c in completions if c.service_class == name]
        ss = [s for s in shed if s.service_class == name]
        met = len([c for c in cs if c.slo_met is not False])
        per_class[name] = {
            "completed": len(cs),
            "shed": len(ss),
            "shed_reasons": reason_counts(ss),
            "throughput": rate(len(cs)),
            "p50_latency": nearest_rank([c.latency for c in cs], 50.0),
            "p95_latency": nearest_rank([c.latency for c in cs], 95.0),
            "mean_queueing_delay": mean([c.queueing_delay for c in cs]),
            "slo_attainment": met / (len(cs) + len(ss)),
            "resource_waits": {
                "cpu": mean(counter(cs, "cpu_contention_time")),
                "disk": mean(counter(cs, "disk_wait_time")),
                "net": mean(counter(cs, "net_wait_time")),
            },
        }
    latencies = [c.latency for c in completions]
    queueing = [c.queueing_delay for c in completions]
    return {
        "completed": len(completions),
        "unfinished": counters["unfinished"],
        "shed": [(s.query_id, s.service_class, s.arrival_time, s.shed_time,
                  s.reason) for s in sorted(shed, key=lambda s: s.query_id)],
        "shed_reasons": reason_counts(shed),
        "makespan": makespan,
        "throughput": rate(len(completions)),
        "p50_latency": nearest_rank(latencies, 50.0),
        "p95_latency": nearest_rank(latencies, 95.0),
        "p99_latency": nearest_rank(latencies, 99.0),
        "mean_queueing_delay": mean(queueing),
        "max_queueing_delay": max(queueing, default=0.0),
        "mean_execution_time": mean([c.execution_time for c in completions]),
        "total_steal_bytes":
            left_fold(counter(completions, "loadbalance_bytes"), 0),
        "total_cpu_contention":
            left_fold(counter(completions, "cpu_contention_time"), 0.0),
        "total_disk_wait":
            left_fold(counter(completions, "disk_wait_time"), 0.0),
        "total_net_wait":
            left_fold(counter(completions, "net_wait_time"), 0.0),
        "cross_steal_rounds":
            left_fold(counter(completions, "cross_steal_rounds"), 0),
        "broker_notifications": counters["broker_notifications"],
        "memory_preemptions": counters["memory_preemptions"],
        "spill_bytes": counters["spill_bytes"],
        "retries": counters["retries"],
        "per_class": per_class,
        "per_query": [
            (c.query_id, c.plan_label, c.service_class, c.arrival_time,
             c.start_time, c.completion_time, c.steal_bytes,
             c.result.metrics.result_tuples,
             c.result.metrics.activations_processed)
            for c in sorted(completions, key=lambda c: c.query_id)
        ],
    }


# -- hand-built streams ----------------------------------------------------------

seconds = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
counts = st.integers(min_value=0, max_value=10**6)
CLASS_NAMES = ("batch", "default", "interactive")


@st.composite
def streams(draw):
    """``(events, counters)``: completions and shed records in one stream.

    One to three class names serve the completions; shed records draw
    from all three, so a class may be shed-only.  SLOs are absent, met or
    missed per completion; either kind of event (or both) may be missing.
    """
    names = CLASS_NAMES[:draw(st.integers(1, 3))]
    kinds = draw(st.lists(st.booleans(), max_size=25))
    events = []
    for query_id, completed in zip(draw(st.permutations(range(len(kinds)))),
                                   kinds):
        arrival = draw(seconds)
        if not completed:
            events.append(ShedRecord(
                query_id, draw(st.sampled_from(CLASS_NAMES)), arrival,
                arrival + draw(seconds),
                draw(st.sampled_from(("queue_timeout", "deadline",
                                      "retries_exhausted"))),
            ))
            continue
        start = arrival + draw(seconds)
        completion = start + draw(seconds)
        execution = ExecutionMetrics(
            cpu_contention_time=draw(seconds), disk_wait_time=draw(seconds),
            net_wait_time=draw(seconds), loadbalance_bytes=draw(counts),
            cross_steal_rounds=draw(counts), result_tuples=draw(counts),
            activations_processed=draw(counts),
        )
        events.append(QueryCompletion(
            query_id, f"plan{query_id % 3}", "DP", arrival, start, completion,
            ExecutionResult("plan", "DP", "2x2", completion - start,
                            execution, start - arrival),
            service_class=draw(st.sampled_from(names)),
            latency_slo=draw(st.none() | seconds),
        ))
    return events, {name: draw(counts) for name in COUNTERS}


class TestReferenceModel:
    @settings(max_examples=150)
    @given(stream=streams())
    def test_summary_matches_the_list_based_model(self, stream):
        events, counters = stream
        metrics = WorkloadMetrics()
        for event in events:
            if isinstance(event, ShedRecord):
                metrics.record_shed(event)
            else:
                metrics.record(event)
        for name, value in counters.items():
            setattr(metrics, name, value)
        completions = [e for e in events if isinstance(e, QueryCompletion)]
        shed = [e for e in events if isinstance(e, ShedRecord)]
        expected = reference_summary(completions, shed, counters)
        assert metrics.completions == completions
        assert repr(metrics.summary()) == repr(expected)
        assert metrics.completed == len(completions)
        assert metrics.shed_count == len(shed)


# -- real runs ---------------------------------------------------------------------


def poisson_driver():
    """A mixed 8-query Poisson run (the scenario the golden digest pins)."""
    plan, config = pipeline_chain_scenario(
        nodes=2, processors_per_node=2, base_tuples=600,
    )
    spec = WorkloadSpec(
        queries=8,
        arrival=ArrivalSpec(kind="poisson", rate=40.0),
        strategy="DP",
        policy=AdmissionPolicy(max_multiprogramming=4),
        seed=11,
    )
    params = ExecutionParams(
        skew=SkewSpec(redistribution=0.8), seed=11
    )
    return WorkloadDriver(plan, config, spec, params)


def sha(summary):
    return hashlib.sha256(repr(summary).encode()).hexdigest()


class TestGoldenDigest:
    """``sha256(repr(summary()))``, computed on PR 15's tree under CPython
    3.11 (where its retaining and streaming classes still agreed)."""

    def test_retained(self):
        metrics = poisson_driver().run().metrics
        assert len(metrics.completions) == 8
        assert sha(metrics.summary()) == (
            "62e240094901869fc397a04961e0c1e8a6298b69dd09c12e99260bfd83d47bee"
        )


class TestRecordedCompletionIsImmutable:
    @pytest.mark.parametrize("discipline,mpl,queries", [
        ("fifo", 4, 8), ("fifo", 6, 10), ("priority", 6, 10),
    ])
    def test_nothing_changes_after_record(self, discipline, mpl, queries):
        """Threads whose last charge is in flight when the root operator
        ends keep waiting for the processor afterwards; none of that may
        reach a completion that has already been recorded."""
        plan, config = pipeline_chain_scenario(nodes=2, processors_per_node=2,
                                               base_tuples=1000)
        params = scaled_execution_params(
            skew=SkewSpec(redistribution=0.8), seed=11,
            cpu_discipline=discipline,
        )
        spec = WorkloadSpec(
            queries=queries,
            arrival=ArrivalSpec(kind="closed", population=mpl),
            policy=AdmissionPolicy(max_multiprogramming=mpl),
            classes=((dataclasses.replace(INTERACTIVE, latency_slo=0.3), 1.0),
                     (BATCH, 2.0)),
            seed=11,
        )
        coordinator = WorkloadDriver(plan, config, spec,
                                     params).build_coordinator()
        sink = coordinator.metrics
        recorded = []
        record = sink.record

        def capturing_record(completion):
            record(completion)
            recorded.append((completion, repr(completion)))

        sink.record = capturing_record
        coordinator.run()
        assert len(recorded) == queries
        for completion, at_record in recorded:
            assert repr(completion) == at_record
        # The run did wait after completions (or the check is vacuous):
        # the processors saw more queueing than the completions carry.
        machine_wait = left_fold(
            [p.wait_time for row in coordinator.substrate.processors
             for p in row], 0.0,
        )
        assert machine_wait > sink.total_cpu_contention() + 1e-4


@pytest.mark.parametrize("module", [
    "engine/metrics.py",
    # where the thread-time slots and the device waits are accumulated
    "engine/thread_exec.py", "engine/strategies/sp.py", "engine/substrate.py",
    # decision / report paths: every figure table, the service-class
    # draw, and the placement ``bytes_avoided`` estimate
    "experiments/methodology.py", "serving/driver.py", "placement/base.py",
])
def test_module_never_calls_builtin_sum(module):
    path = Path(metrics_module.__file__).parents[1] / module
    tree = ast.parse(path.read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "sum"]
    assert not calls, (
        f"{module} calls sum() on line(s) {calls}: builtin sum() of "
        "floats is Neumaier-compensated from Python 3.12 on, so the digest "
        "would differ between interpreters (and from baselines/"
        "identity.txt, generated on 3.11); fold with += in record order"
    )
