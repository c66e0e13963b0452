"""Preemptive memory management: suspend, spill, resume, account.

The coordinator may resolve a memory-blocked high-priority admission by
suspending a lower-priority query's hash-join state and spilling its
reserved bytes (priced like steal page transfers through the network
and disk models), resuming — with a symmetric reload — once the
preemptor resolves.  The contract under test:

* preemption fires only across a priority gap, only when the blocked
  request has a guaranteed resolution path (a shed deadline or
  ``preemption_shed``), and frees real bytes;
* the victim is frozen while suspended and still completes correctly
  after the resume (no lost work, no deadlock);
* ``QueryPreempted`` / ``QueryResumed`` are logged and the
  ``memory_preemptions`` / ``spill_bytes`` counters account for it;
* with no eligible victim, ``preemption_shed`` sheds the blocked head
  with the ``memory_preempted`` taxonomy reason instead of stalling the
  queue.
"""

import pytest

from repro.serving import BATCH, INTERACTIVE, AdmissionPolicy
from repro.serving.coordinator import MultiQueryCoordinator
from repro.serving.trace import (MemoryLogger, QueryPreempted, QueryResumed,
                                 QueryShedEvent)
from repro.sim import MachineConfig
from repro.workloads import pipeline_chain_scenario


def tight_memory_config(memory_per_processor=500_000):
    """1 MB per node against ~600 KB of hash builds per query."""
    return MachineConfig(nodes=2, processors_per_node=2,
                         memory_per_processor=memory_per_processor)


def chain_plan(config, base_tuples=4000):
    plan, _config = pipeline_chain_scenario(
        base_tuples=base_tuples, chain_joins=3, config=config
    )
    return plan


def run_batch_then_interactive(policy, interactive_at=0.12,
                               logger=None):
    """One batch query holding most of node memory, one interactive
    query arriving mid-flight whose demand cannot fit beside it."""
    config = tight_memory_config()
    plan = chain_plan(config)
    coordinator = MultiQueryCoordinator(config, policy=policy,
                                        logger=logger)
    env = coordinator.env
    requests = {}

    def submit():
        requests["batch"] = coordinator.submit(
            plan, service_class=BATCH, query_id=0
        )
        yield env.timeout(interactive_at)
        requests["interactive"] = coordinator.submit(
            plan, service_class=INTERACTIVE, query_id=1
        )
        coordinator.close_arrivals()

    env.process(submit(), name="submit")
    metrics = coordinator.run()
    return metrics, requests


class TestPreemptionFires:
    def test_interactive_preempts_batch_build(self):
        logger = MemoryLogger()
        policy = AdmissionPolicy(max_multiprogramming=4,
                                 memory_preemption=True,
                                 queue_timeout=1.0)
        metrics, requests = run_batch_then_interactive(policy,
                                                       logger=logger)
        assert metrics.completed == 2
        assert metrics.shed_count == 0
        assert metrics.memory_preemptions >= 1
        assert metrics.spill_bytes > 0
        preempted = [e for e in logger.events
                     if isinstance(e, QueryPreempted)]
        resumed = [e for e in logger.events if isinstance(e, QueryResumed)]
        assert preempted and resumed
        for event in preempted:
            assert event.query_id == 0
            assert event.for_query_id == 1
            assert event.spilled_bytes > 0
        # resume happens strictly after the spill, and reloads what the
        # store could re-reserve
        assert resumed[0].time > preempted[0].time
        assert resumed[0].query_id == 0
        # the interactive query was admitted while the batch query was
        # still in flight — the whole point of preempting
        batch = requests["batch"].completion
        interactive = requests["interactive"]
        assert interactive.start_time < batch.completion_time
        # summary surfaces the counters
        summary = metrics.summary()
        assert summary["memory_preemptions"] == metrics.memory_preemptions
        assert summary["spill_bytes"] == metrics.spill_bytes

    def test_greedy_cover_spills_only_what_the_shortfall_needs(self):
        # the victim holds three ~200 KB/node hash tables but the
        # interactive query's shortfall is covered by one of them —
        # spilling (and reloading) the other two would be pure priced
        # overhead, so the greedy cover must stop after the first
        policy = AdmissionPolicy(max_multiprogramming=4,
                                 memory_preemption=True,
                                 queue_timeout=1.0)
        metrics, _ = run_batch_then_interactive(policy)
        assert metrics.memory_preemptions == 1
        assert 0 < metrics.spill_bytes < 800_000

    def test_preemption_is_deterministic(self):
        policy = AdmissionPolicy(max_multiprogramming=4,
                                 memory_preemption=True,
                                 queue_timeout=1.0)
        a, _ = run_batch_then_interactive(policy)
        b, _ = run_batch_then_interactive(policy)
        assert a.summary() == b.summary()

    def test_disabled_by_default(self):
        policy = AdmissionPolicy(max_multiprogramming=4, queue_timeout=1.0)
        metrics, requests = run_batch_then_interactive(policy)
        assert metrics.memory_preemptions == 0
        assert metrics.spill_bytes == 0
        assert metrics.completed == 2
        # without preemption the interactive query waits for the batch
        # query's own memory releases — preemption admits it earlier
        preemptive = AdmissionPolicy(max_multiprogramming=4,
                                     memory_preemption=True,
                                     queue_timeout=1.0)
        _pre_metrics, pre_requests = run_batch_then_interactive(preemptive)
        assert (pre_requests["interactive"].start_time
                < requests["interactive"].start_time)


class TestPreemptionGuards:
    def test_no_priority_gap_no_preemption(self):
        # a BATCH query cannot preempt a BATCH query
        config = tight_memory_config()
        plan = chain_plan(config)
        policy = AdmissionPolicy(max_multiprogramming=4,
                                 memory_preemption=True,
                                 queue_timeout=1.0)
        coordinator = MultiQueryCoordinator(config, policy=policy)
        env = coordinator.env

        def submit():
            coordinator.submit(plan, service_class=BATCH, query_id=0)
            yield env.timeout(0.12)
            coordinator.submit(plan, service_class=BATCH, query_id=1)
            coordinator.close_arrivals()

        env.process(submit(), name="submit")
        metrics = coordinator.run()
        assert metrics.memory_preemptions == 0
        assert metrics.completed == 2

    def test_liveness_guard_refuses_undeadlined_preemption(self):
        # without a shed deadline on the blocked request (and without
        # preemption_shed) there is no guaranteed resolution path for
        # the suspended victim, so the coordinator must not preempt
        policy = AdmissionPolicy(max_multiprogramming=4,
                                 memory_preemption=True)
        metrics, _ = run_batch_then_interactive(policy)
        assert metrics.memory_preemptions == 0
        assert metrics.completed == 2

    def test_preemption_shed_when_no_victim(self):
        # an INTERACTIVE query is running; a memory-blocked BATCH head
        # finds no lower-priority victim and preemption_shed drops it
        # with the taxonomy reason instead of stalling the queue
        logger = MemoryLogger()
        config = tight_memory_config()
        plan = chain_plan(config)
        policy = AdmissionPolicy(max_multiprogramming=4,
                                 memory_preemption=True,
                                 preemption_shed=True,
                                 queue_timeout=1.0)
        coordinator = MultiQueryCoordinator(config, policy=policy,
                                            logger=logger)
        env = coordinator.env

        def submit():
            coordinator.submit(plan, service_class=INTERACTIVE, query_id=0)
            yield env.timeout(0.12)
            coordinator.submit(plan, service_class=BATCH, query_id=1)
            coordinator.close_arrivals()

        env.process(submit(), name="submit")
        metrics = coordinator.run()
        assert metrics.memory_preemptions == 0
        assert metrics.completed == 1
        assert metrics.shed_reason_counts() == {"memory_preempted": 1}
        shed_events = [e for e in logger.events
                       if isinstance(e, QueryShedEvent)]
        assert [e.reason for e in shed_events] == ["memory_preempted"]
