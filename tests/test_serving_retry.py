"""Retry/backoff clients: purity, accounting identities, record/replay.

The retry layer's determinism contract extends the driver's: a shed
query's resubmission schedule is a pure function of ``(seed, index,
attempt)`` — never of completion interleaving — so retry-heavy runs
stay byte-reproducible and record/replay round-trips exactly.  The
accounting identities under retries:

* ``served + gave_up == spec.queries`` (every logical query resolves);
* ``completed + shed_count == spec.queries + retries`` (every attempt
  resolves);
* ``shed_count == retries + gave_up`` (every shed attempt was either
  retried or terminal);

and a terminal shed is reclassified ``retries_exhausted`` in the shed
taxonomy.
"""

import dataclasses

import pytest

from repro.catalog import Relation
from repro.optimizer import BaseNode, JoinNode, compile_plan
from repro.query import JoinEdge, QueryGraph
from repro.serving import (
    AdmissionPolicy,
    ArrivalSpec,
    RetryPolicySpec,
    WorkloadSpec,
)
from repro.serving.driver import WorkloadDriver
from repro.serving.trace import (JsonLinesLogger, MemoryLogger,
                                 QuerySubmitted, Trace)
from repro.sim import MachineConfig


def join_plan(config, r=600, s=1200, label="retry"):
    sel = 1.0 / r
    graph = QueryGraph(
        [Relation("R", r), Relation("S", s)], [JoinEdge("R", "S", sel)]
    )
    tree = JoinNode(BaseNode(graph.relation("R")),
                    BaseNode(graph.relation("S")), sel)
    return compile_plan(graph, tree, config, label=label)


def shed_heavy_spec(retry, queries=10, seed=17):
    """Arrivals far above a deliberately choked machine: most attempts
    shed on the queue timeout, exercising the retry path hard."""
    return WorkloadSpec(
        queries=queries,
        arrival=ArrivalSpec(kind="bursty", rate=400.0, burst_size=10),
        policy=AdmissionPolicy(max_multiprogramming=1, queue_timeout=0.02),
        retry=retry,
        seed=seed,
    )


class TestRetryPolicySpec:
    def test_backoff_is_pure_in_seed_index_attempt(self):
        policy = RetryPolicySpec()
        a = [policy.backoff(7, i, k) for i in range(4) for k in (1, 2, 3)]
        b = [policy.backoff(7, i, k) for i in range(4) for k in (1, 2, 3)]
        assert a == b
        # different coordinates give different jitter draws
        assert policy.backoff(7, 0, 1) != policy.backoff(7, 1, 1)
        assert policy.backoff(7, 0, 1) != policy.backoff(8, 0, 1)

    def test_backoff_growth_and_jitter_envelope(self):
        policy = RetryPolicySpec(base_backoff=1.0, multiplier=2.0,
                                 jitter=0.5)
        for attempt in (1, 2, 3, 4):
            raw = 2.0 ** (attempt - 1)
            value = policy.backoff(1, 0, attempt)
            assert raw * 0.5 <= value <= raw

    def test_max_backoff_caps_the_raw_delay(self):
        policy = RetryPolicySpec(base_backoff=1.0, multiplier=4.0,
                                 max_backoff=3.0, jitter=0.0)
        assert policy.backoff(1, 0, 1) == 1.0
        assert policy.backoff(1, 0, 2) == 3.0
        assert policy.backoff(1, 0, 9) == 3.0

    def test_is_final_counts_total_submissions(self):
        policy = RetryPolicySpec(max_attempts=3)
        assert not policy.is_final(0)
        assert not policy.is_final(1)
        assert policy.is_final(2)
        unbounded = RetryPolicySpec(max_attempts=None)
        assert not unbounded.is_final(10 ** 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicySpec(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicySpec(base_backoff=0.0)
        with pytest.raises(ValueError):
            RetryPolicySpec(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicySpec(max_backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicySpec(jitter=1.5)


class TestOpenLoopRetryAccounting:
    def run_shed_heavy(self, retry, seed=17):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = join_plan(config, r=1500, s=3000)
        spec = shed_heavy_spec(retry, seed=seed)
        return WorkloadDriver(plan, config, spec).run()

    def test_identities_hold_under_bounded_retries(self):
        result = self.run_shed_heavy(RetryPolicySpec(
            max_attempts=3, base_backoff=0.01, jitter=0.5))
        metrics, stats = result.metrics, result.clients
        assert stats.retries > 0, "scenario must actually retry"
        assert stats.gave_up > 0, "scenario must actually exhaust retries"
        assert stats.served + stats.gave_up == 10
        assert metrics.completed + metrics.shed_count == 10 + stats.retries
        assert metrics.shed_count == stats.retries + stats.gave_up
        assert metrics.retries == stats.retries
        assert stats.backoff_seconds > 0

    def test_terminal_shed_reclassified_retries_exhausted(self):
        result = self.run_shed_heavy(RetryPolicySpec(
            max_attempts=2, base_backoff=0.01))
        reasons = result.metrics.shed_reason_counts()
        assert reasons.get("retries_exhausted") == result.clients.gave_up
        assert result.clients.gave_up > 0
        # non-terminal sheds keep their gate reason
        assert reasons.get("queue_timeout", 0) == result.clients.retries

    def test_single_attempt_policy_matches_no_retry_run(self):
        # max_attempts=1 is "no retries": identical metrics to retry=None
        # apart from the terminal-shed reason relabel.
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = join_plan(config, r=1500, s=3000)
        one = WorkloadDriver(plan, config, shed_heavy_spec(
            RetryPolicySpec(max_attempts=1))).run()
        none = WorkloadDriver(plan, config, shed_heavy_spec(None)).run()
        assert one.clients.retries == 0
        assert one.metrics.completed == none.metrics.completed
        assert one.metrics.shed_count == none.metrics.shed_count
        assert [c.completion_time for c in one.metrics.completions] == \
            [c.completion_time for c in none.metrics.completions]

    def test_retry_run_is_deterministic(self):
        retry = RetryPolicySpec(max_attempts=4, base_backoff=0.01,
                                jitter=0.7)
        a = self.run_shed_heavy(retry)
        b = self.run_shed_heavy(retry)
        assert a.metrics.summary() == b.metrics.summary()
        assert a.clients == b.clients

    def test_every_attempt_gets_its_own_query_id(self):
        # The coordinator keys running queries by id without checking
        # them: the driver's ``attempt * queries + index`` ids must be
        # unique by construction, retries included.
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = join_plan(config, r=1500, s=3000)
        logger = MemoryLogger()
        spec = shed_heavy_spec(RetryPolicySpec(
            max_attempts=None, base_backoff=0.02, jitter=0.1))
        result = WorkloadDriver(plan, config, spec, logger=logger).run()
        ids = [event.query_id for event in logger.events
               if isinstance(event, QuerySubmitted)]
        assert result.clients.retries > 10
        assert len(ids) == 10 + result.clients.retries
        assert len(set(ids)) == len(ids)
        assert len(Trace.from_events(logger.events).queries) == len(ids)

    def test_unbounded_retries_eventually_serve_everything(self):
        result = self.run_shed_heavy(RetryPolicySpec(
            max_attempts=None, base_backoff=0.02, jitter=0.1))
        assert result.clients.gave_up == 0
        assert result.clients.served == 10
        assert result.metrics.completed == 10
        assert result.metrics.shed_reason_counts().get(
            "retries_exhausted") is None


class TestClosedLoopRetryAccounting:
    def test_identities_and_population(self):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = join_plan(config, r=1500, s=3000)
        spec = WorkloadSpec(
            queries=8,
            arrival=ArrivalSpec(kind="closed", population=4),
            policy=AdmissionPolicy(max_multiprogramming=1,
                                   queue_timeout=0.02),
            retry=RetryPolicySpec(max_attempts=3, base_backoff=0.01),
            seed=23,
        )
        result = WorkloadDriver(plan, config, spec).run()
        stats = result.clients
        assert stats.population == 4
        assert stats.served + stats.gave_up == 8
        assert result.metrics.shed_count == stats.retries + stats.gave_up
        assert (result.metrics.completed + result.metrics.shed_count
                == 8 + stats.retries)

    def test_no_retry_closed_loop_stats_still_populated(self):
        # The MPL-shrink accounting is visible even without a retry
        # policy: a shed client walks away, recorded as gave_up.
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = join_plan(config, r=1500, s=3000)
        spec = WorkloadSpec(
            queries=8,
            arrival=ArrivalSpec(kind="closed", population=4),
            policy=AdmissionPolicy(max_multiprogramming=1,
                                   queue_timeout=0.02),
            seed=23,
        )
        result = WorkloadDriver(plan, config, spec).run()
        stats = result.clients
        assert stats.population == 4
        assert stats.served == result.metrics.completed
        assert stats.gave_up == result.metrics.shed_count
        assert stats.retries == 0


class TestRetryRecordReplay:
    def test_shed_heavy_retry_roundtrip_is_byte_identical(self, tmp_path):
        config = MachineConfig(nodes=1, processors_per_node=2)
        plan = join_plan(config, r=1500, s=3000)
        spec = shed_heavy_spec(RetryPolicySpec(
            max_attempts=3, base_backoff=0.01, jitter=0.5))
        path = str(tmp_path / "retry.jsonl.gz")
        with JsonLinesLogger(path) as logger:
            original = WorkloadDriver(plan, config, spec,
                                      logger=logger).run()
        assert original.clients.retries > 0
        trace = Trace.load(path)
        assert any(q.attempt > 0 for q in trace.queries)
        assert any(q.final_attempt for q in trace.queries)
        replayed = WorkloadDriver(plan, config, spec, trace=trace).run()
        assert original.metrics.summary() == replayed.metrics.summary()
        # the replay recovers the retry count from the recorded attempts
        assert replayed.clients.retries == original.clients.retries
        assert replayed.clients.gave_up == original.clients.gave_up
        assert replayed.clients.served == original.clients.served
