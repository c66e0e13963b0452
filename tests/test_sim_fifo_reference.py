"""The analytic FIFO against an event-per-charge reference model.

:class:`~repro.sim.core.FIFODiscipline` grants every charge at issue
from per-slot busy horizons.  The model it must reproduce is the plain
FIFO queue kept *here*: a ``users`` counter, waiters parked on events, a
released slot handed straight to the oldest waiter.  On arbitrary charge
streams the two agree bit for bit — completion trajectory, per-charge
waits, ``waits``, ``wait_time``, ``busy_time``, end instant (see
:func:`tie_free` for the one carve-out).  Also here: the discipline's
slot state (``in_use``, ``queued``) and the bound on its bookkeeping.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment, Resource


class ReferenceFIFO:
    """Event-per-charge FIFO resource (the reference model)."""

    def __init__(self, env, capacity):
        self.env = env
        self.capacity = capacity
        self.users = 0
        self._waiters = deque()
        self.waits = 0
        self.wait_time = 0.0
        self.busy_time = 0.0

    def use(self, delay):
        env = self.env
        if self.users < self.capacity and not self._waiters:
            self.users += 1
        else:
            event = env.event()
            self._waiters.append(event)
            self.waits += 1
            started = env.now
            yield event  # the releaser hands us its slot: users unchanged
            self.wait_time += env.now - started
        yield env.timeout(delay)
        self.busy_time += delay
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.users -= 1


def run_stream(charges, capacity, make_resource):
    """Run ``charges`` = [(start_delay, duration)] through one resource;
    return (per-charge (index, finish, wait) in completion order, stats)."""
    env = Environment()
    resource = make_resource(env, capacity)
    done = []

    def proc(index, start, duration):
        if start > 0:
            yield env.timeout(start)
        issued = env.now
        yield from resource.use(duration)
        done.append((index, env.now, env.now - issued - duration))

    for index, (start, duration) in enumerate(charges):
        env.process(proc(index, start, duration))
    env.run()
    stats = (resource.waits, resource.wait_time, resource.busy_time, env.now)
    return done, stats


charge_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.02),   # start delay
        st.floats(min_value=0.0, max_value=0.01),   # duration (0 allowed)
    ),
    min_size=1, max_size=30,
)


def analytic_fifo(env, capacity):
    return Resource(env, capacity=capacity)


def tie_free(charges, done):
    """No completion shares its instant with another completion or an
    arrival.  Inside such an instant the models may order events
    differently (the analytic path numbers a completion at issue, the
    reference at grant): same-instant completions can swap and a
    zero-length wait become none."""
    finishes = [finish for _index, finish, _wait in done]
    arrivals = {start for start, _duration in charges}
    return (len(set(finishes)) == len(finishes)
            and arrivals.isdisjoint(finishes))


def assert_matches_reference(charges, capacity):
    ref_done, ref_stats = run_stream(charges, capacity, ReferenceFIFO)
    done, stats = run_stream(charges, capacity, analytic_fifo)
    # Ties or not: per-charge finish and wait, total wait, end instant.
    assert repr(sorted(ref_done)) == repr(sorted(done))
    assert repr(ref_stats[1::2]) == repr(stats[1::2])
    if tie_free(charges, ref_done):
        # Completion order, ``waits``, ``busy_time`` (summed in that order).
        assert repr((ref_done, ref_stats)) == repr((done, stats))


class TestAnalyticEqualsReference:
    @given(charges=charge_lists, capacity=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_property_fifo_bit_identical_to_reference(self, charges,
                                                      capacity):
        assert_matches_reference(charges, capacity)

    def test_same_instant_ties_match_reference(self):
        """Arrivals exactly on a slot's horizon: the slot stays occupied
        until its holder's completion has fired."""
        charges = [(0.0, 0.01)] * 5 + [(0.01, 0.01)] * 3 + [(0.02, 0.0)] * 2
        for capacity in (1, 2, 3):
            assert_matches_reference(charges, capacity)


class TestFIFOSlotState:
    def test_in_use_counts_busy_horizons(self):
        env = Environment()
        resource = Resource(env, capacity=2)

        def charge(duration):
            yield from resource.use(duration, None)

        env.process(charge(2.0))
        env.process(charge(5.0))
        env.process(charge(1.0))  # queued behind the first two

        env.run(until=1.0)
        assert resource.in_use == 2
        assert resource.queued == 1
        env.run(until=4.0)  # first done at 2.0, third runs 2.0..3.0
        assert resource.in_use == 1
        assert resource.queued == 0
        env.run()
        assert resource.in_use == 0
        assert resource.waits == 1

    def test_waiting_starts_stay_bounded_by_live_queue_depth(self):
        """A long contended stream nobody samples ``queued`` on (it used
        to keep one float per contended charge for the whole run)."""
        env = Environment()
        resource = Resource(env, capacity=2)
        workers = 6
        peak = [0]

        def worker(i):
            for _ in range(2000):
                yield from resource.use(1e-4 * (i % 3 + 1))
                peak[0] = max(peak[0], len(resource._sched.starts))

        for i in range(workers):
            env.process(worker(i))
        env.run()
        assert resource.waits > 10_000
        assert peak[0] <= workers  # each has at most one charge waiting
        assert resource.queued == 0
