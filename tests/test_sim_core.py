"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (ChargeTag, Environment, Interrupt, Resource,
                       SimulationError, make_discipline)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(1.5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [1.5, 4.0]
    assert env.now == 4.0


def test_zero_timeout_is_allowed():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_event_wakes_waiter_with_value():
    env = Environment()
    gate = env.event("gate")
    seen = []

    def waiter():
        value = yield gate
        seen.append((env.now, value))

    def trigger():
        yield env.timeout(3)
        gate.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == [(3.0, "payload")]


def test_waiting_on_already_triggered_event_resumes_immediately():
    env = Environment()
    gate = env.event("gate")
    seen = []

    def trigger():
        yield env.timeout(1)
        gate.succeed(7)

    def late_waiter():
        yield env.timeout(5)
        value = yield gate
        seen.append((env.now, value))

    env.process(trigger())
    env.process(late_waiter())
    env.run()
    assert seen == [(5.0, 7)]


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_process_return_value_propagates_to_parent():
    env = Environment()
    results = []

    def child():
        yield env.timeout(2)
        return 42

    def parent():
        value = yield env.process(child())
        results.append((env.now, value))

    env.process(parent())
    env.run()
    assert results == [(2.0, 42)]


def test_yield_from_composes_subgenerators():
    """Procedure-call suspension: nested work via ``yield from``."""
    env = Environment()
    trace = []

    def inner(label):
        yield env.timeout(1)
        trace.append((label, env.now))
        return label

    def outer():
        a = yield from inner("a")
        b = yield from inner("b")
        trace.append((a + b, env.now))

    env.process(outer())
    env.run()
    assert trace == [("a", 1.0), ("b", 2.0), ("ab", 2.0)]


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def make(label):
        def proc():
            yield env.timeout(1)
            order.append(label)
        return proc

    for label in "abc":
        env.process(make(label)())
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_the_clock():
    env = Environment()

    def proc():
        yield env.timeout(10)

    env.process(proc())
    final = env.run(until=4)
    assert final == 4.0
    assert env.now == 4.0
    # Resuming finishes the run.
    env.run()
    assert env.now == 10.0


def test_yield_none_is_cooperative_yield():
    env = Environment()
    order = []

    def a():
        order.append("a1")
        yield None
        order.append("a2")

    def b():
        order.append("b1")
        yield None
        order.append("b2")

    env.process(a())
    env.process(b())
    env.run()
    assert order == ["a1", "b1", "a2", "b2"]
    assert env.now == 0.0


def test_yielding_garbage_raises():
    env = Environment()

    def proc():
        yield "not an event"

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_all_of_waits_for_every_event():
    env = Environment()
    gates = [env.event(f"g{i}") for i in range(3)]
    seen = []

    def waiter():
        values = yield env.all_of(gates)
        seen.append((env.now, values))

    def trigger():
        for i, gate in enumerate(gates):
            yield env.timeout(1)
            gate.succeed(i)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == [(3.0, [0, 1, 2])]


def test_all_of_empty_list_fires_immediately():
    env = Environment()
    seen = []

    def waiter():
        values = yield env.all_of([])
        seen.append(values)

    env.process(waiter())
    env.run()
    assert seen == [[]]


def test_any_of_fires_on_first():
    env = Environment()
    fast = env.event("fast")
    slow = env.event("slow")
    seen = []

    def waiter():
        value = yield env.any_of([slow, fast])
        seen.append((env.now, value))

    def trigger():
        yield env.timeout(1)
        fast.succeed("quick")
        yield env.timeout(5)
        slow.succeed("late")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == [(1.0, "quick")]


def test_interrupt_wakes_a_waiting_process():
    env = Environment()
    caught = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            caught.append((env.now, intr.cause))

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(2)
        proc.interrupt("wake up")

    env.process(interrupter())
    env.run()
    assert caught == [(2.0, "wake up")]


def test_process_is_alive_until_done():
    env = Environment()

    def proc():
        yield env.timeout(5)

    p = env.process(proc())
    env.run(until=1)
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_peek_reports_next_event_time():
    env = Environment()

    def proc():
        yield env.timeout(7)

    env.process(proc())
    assert env.peek() == 0.0  # process bootstrap event
    env.run(until=1)
    assert env.peek() == 7.0


class TestLazyDeletionPurge:
    """Lazily-cancelled heap entries (priority preemption storms) are
    eagerly purged once they dominate the queue."""

    def test_discard_purges_when_dead_dominate(self):
        env = Environment()
        events = [env.timeout(float(i + 1)) for i in range(500)]
        assert len(env._heap) == 500
        for event in events[:400]:
            event.callbacks = []
            env.discard(event)
        # The purge triggers whenever dead entries pass the fixed floor
        # AND dominate the queue, so the heap can never hold more than
        # live + max(64, live) entries (here: 100 live).
        assert len(env._heap) <= 200
        # All 100 live events are still there.
        live = [e for e in env._heap if not getattr(e[3], "_cancelled", False)]
        assert len(live) == 100

    def test_preemption_storm_keeps_heap_bounded(self):
        """The regression the purge fixes: a long-running victim preempted
        over and over leaves one cancelled far-future segment timeout per
        preemption — unbounded growth within one busy period before the
        purge, bounded now."""
        env = Environment()
        resource = Resource(env, capacity=1,
                            discipline=make_discipline("priority"))
        peak = [0]

        def victim():
            tag = ChargeTag(key="batch", weight=1.0, priority=0)
            yield from resource.use(1000.0, tag)

        def interactive():
            tag = ChargeTag(key="slo", weight=1.0, priority=9)
            for _ in range(600):
                yield env.timeout(0.01)
                yield from resource.use(1e-4, tag)
                peak[0] = max(peak[0], len(env._heap))

        env.process(victim())
        env.process(interactive())
        env.run()
        assert resource.preemptions >= 600
        # Each preemption lazily cancels the victim's far-future segment
        # timeout; without the purge those ~600 dead entries pile up in
        # one busy period.  With it, dead entries can never exceed
        # max(64, live) and live events here are a handful.
        assert peak[0] < 150
