"""Property tests for the disk and network scheduling disciplines.

Mirrors :mod:`tests.test_sim_discipline_properties` for the two service
resources the discipline layer was extended to:

* **FIFO is the seed**: the default (analytic) disk arm and the
  infinite-bandwidth network produce byte-identical traces whether or
  not requests/messages carry :class:`~repro.sim.core.ChargeTag`\\ s —
  tags are inert under FIFO, so single-query figure outputs cannot
  drift no matter what service classes exist above;
* **fair share splits the arm/link by weight**: competing backlogged
  classes receive service time in proportion to their tag weights, the
  resource is work-conserving, and nothing starves;
* **preemption conserves**: however often the priority discipline
  preempts an in-flight transfer, every request completes, and the
  banked service sums to the total demand.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import ChargeTag, Environment, make_discipline
from repro.sim.disk import Disk, DiskParams
from repro.sim.network import Network, NetworkLink, NetworkParams


# ---------------------------------------------------------------------------
# Disk
# ---------------------------------------------------------------------------

def run_disk_requests(discipline, requests, trace_tags=True, params=None):
    """Run ``requests`` = [(start_delay, pages, stream, key, weight, prio)]
    against one disk; return [(completion_time, index)] plus the disk."""
    env = Environment()
    disc = None if discipline is None else make_discipline(discipline)
    disk = Disk(env, params or DiskParams(), name="d", discipline=disc)
    done = []

    def reader(index, start, pages, stream, tag):
        if start > 0:
            yield env.timeout(start)
        handle = disk.read_async(pages, stream=stream, tag=tag)
        yield handle.event
        done.append((env.now, index))

    for index, (start, pages, stream, key, weight, prio) in enumerate(requests):
        tag = (ChargeTag(key=key, weight=weight, priority=prio)
               if trace_tags else None)
        env.process(reader(index, start, pages, stream, tag))
    env.run()
    return done, disk


request_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.05),   # start delay
        st.integers(min_value=1, max_value=12),     # pages
        st.sampled_from([None, "s1", "s2"]),        # stream
        st.sampled_from(["a", "b", "c"]),           # class key
        st.floats(min_value=0.25, max_value=8.0),   # weight
        st.integers(min_value=0, max_value=3),      # priority
    ),
    min_size=1, max_size=20,
)


class TestDiskFIFOByteIdentity:
    @given(requests=request_lists)
    @settings(max_examples=30, deadline=None)
    def test_property_tags_are_inert_under_fifo(self, requests):
        """The analytic FIFO arm with service-class tags is byte-identical
        to the untagged arm: same completion times, same order, same
        busy/request statistics."""
        tagged, d1 = run_disk_requests("fifo", requests, trace_tags=True)
        untagged, d2 = run_disk_requests("fifo", requests, trace_tags=False)
        assert repr(tagged) == repr(untagged)
        assert (d1.busy_time, d1.requests, d1.pages_read) == \
               (d2.busy_time, d2.requests, d2.pages_read)

    @given(requests=request_lists)
    @settings(max_examples=30, deadline=None)
    def test_property_fifo_discipline_object_matches_default(self, requests):
        """Passing the FIFO discipline explicitly selects the analytic
        arm — identical to passing no discipline at all."""
        explicit, d1 = run_disk_requests("fifo", requests)
        default, d2 = run_disk_requests(None, requests)
        assert repr(explicit) == repr(default)
        assert d1.discipline_name == d2.discipline_name == "fifo"

    def test_fifo_wait_accounting_sees_the_busy_period(self):
        # Two stream-less requests issued back to back: the second queues
        # for the full service of the first, and the wait is attributed
        # to its tag key without shifting any event times.
        requests = [(0.0, 2, None, "a", 1.0, 0), (0.0, 2, None, "b", 1.0, 0)]
        done, disk = run_disk_requests("fifo", requests)
        one = DiskParams().service_time(2)
        assert done[0][0] == pytest.approx(one)
        assert done[1][0] == pytest.approx(2 * one)
        assert disk.wait_time == pytest.approx(one)
        assert disk.take_wait_time("b") == pytest.approx(one)
        assert disk.take_wait_time("a") == 0.0


class TestDiskFairShare:
    @given(requests=request_lists)
    @settings(max_examples=30, deadline=None)
    def test_property_every_request_completes_and_conserves(self, requests):
        done, disk = run_disk_requests("fair", requests)
        assert sorted(i for _t, i in done) == list(range(len(requests)))
        assert disk.pages_read == sum(pages for _s, pages, *_ in requests)

    def test_saturated_classes_split_the_arm_by_weight(self):
        env = Environment()
        disk = Disk(env, DiskParams(), name="d",
                    discipline=make_discipline("fair"))
        served = {"a": 0.0, "c": 0.0}
        weights = {"a": 1.0, "c": 4.0}
        service = DiskParams().service_time(1)

        def worker(key):
            tag = ChargeTag(key=key, weight=weights[key])
            while env.now < 3.0:
                yield disk.read_async(1, tag=tag).event
                served[key] += service

        for key in served:
            env.process(worker(key))
        env.run(until=3.0)
        total = sum(served.values())
        assert served["c"] / total == pytest.approx(4 / 5, rel=0.05)


class TestDiskPriorityPreemptive:
    @given(requests=request_lists)
    @settings(max_examples=30, deadline=None)
    def test_property_preemption_never_loses_a_request(self, requests):
        """Conservation: every read completes exactly once and the arm's
        banked busy time equals the total service demand."""
        done, disk = run_disk_requests("priority", requests)
        assert sorted(i for _t, i in done) == list(range(len(requests)))
        assert disk.pages_read == sum(pages for _s, pages, *_ in requests)

    def test_interactive_read_preempts_a_batch_transfer(self):
        # A long batch read from t=0; a high-priority page read arriving
        # mid-transfer preempts the arm and completes as if the batch
        # backlog did not exist; the batch read still finishes in full.
        params = DiskParams()
        long_service = params.service_time(12)
        short_service = params.service_time(1)
        requests = [
            (0.0, 12, None, "batch", 1.0, 0),
            (0.005, 1, None, "int", 1.0, 9),
        ]
        done, disk = run_disk_requests("priority", requests, params=params)
        completion = {i: t for t, i in done}
        assert completion[1] == pytest.approx(0.005 + short_service)
        assert completion[0] == pytest.approx(long_service + short_service)
        assert disk.preemptions == 1
        assert disk.busy_time == pytest.approx(long_service + short_service)

    def test_high_priority_backlog_is_served_first(self):
        # All queued at t=0 behind one running transfer: the interactive
        # requests drain before any further batch request is served.
        requests = [(0.0, 4, None, "batch", 1.0, 0)] * 4 + \
                   [(0.001, 4, None, "int", 1.0, 5)] * 2
        done, _disk = run_disk_requests("priority", requests)
        order = [i for _t, i in done]
        # Index 0 was in service; 4 and 5 (interactive) jump the queue.
        assert set(order[:3]) == {0, 4, 5}


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

def run_network_messages(messages, params=None, discipline=None,
                         trace_tags=True):
    """Send ``messages`` = [(start_delay, nbytes, key, weight, prio)] from
    node 0 to node 1; return [(delivery_time, index)] plus the network."""
    env = Environment()
    network = Network(env, params or NetworkParams(),
                      discipline=(make_discipline(discipline)
                                  if discipline else None))
    delivered = []
    network.register(0, lambda m: None)
    network.register(1, lambda m: delivered.append((env.now, m.payload)))

    def sender(index, start, nbytes, tag):
        if start > 0:
            yield env.timeout(start)
        network.send(0, 1, "m", index, nbytes=nbytes, tag=tag)

    for index, (start, nbytes, key, weight, prio) in enumerate(messages):
        tag = (ChargeTag(key=key, weight=weight, priority=prio)
               if trace_tags else None)
        env.process(sender(index, start, nbytes, tag))
    env.run()
    return delivered, network


message_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.01),     # start delay
        st.integers(min_value=0, max_value=64_000),   # nbytes
        st.sampled_from(["a", "b", "c"]),             # class key
        st.floats(min_value=0.25, max_value=8.0),     # weight
        st.integers(min_value=0, max_value=3),        # priority
    ),
    min_size=1, max_size=20,
)


class TestNetworkFIFOByteIdentity:
    @given(messages=message_lists)
    @settings(max_examples=30, deadline=None)
    def test_property_tags_are_inert_on_the_infinite_interconnect(
            self, messages):
        """With the paper's infinite bandwidth there is no link to queue
        for: tagged and untagged sends deliver byte-identically, under
        any discipline name."""
        tagged, n1 = run_network_messages(messages, trace_tags=True,
                                          discipline="priority")
        untagged, n2 = run_network_messages(messages, trace_tags=False)
        assert repr(tagged) == repr(untagged)
        assert (n1.messages_sent, n1.bytes_sent) == \
               (n2.messages_sent, n2.bytes_sent)
        assert n1.link is None and n2.link is None

    @given(messages=message_lists)
    @settings(max_examples=20, deadline=None)
    def test_property_every_message_is_delivered_once(self, messages):
        params = NetworkParams(bandwidth=1e6)
        delivered, network = run_network_messages(
            messages, params=params, discipline="fifo"
        )
        assert sorted(i for _t, i in delivered) == list(range(len(messages)))
        assert network.link is not None


class TestNetworkLinkScheduling:
    def test_fifo_link_serializes_in_arrival_order(self):
        params = NetworkParams(bandwidth=1e6, transmission_delay=0.0)
        messages = [(0.0, 10_000, "a", 1.0, 0), (0.0, 10_000, "b", 1.0, 5)]
        delivered, network = run_network_messages(
            messages, params=params, discipline="fifo"
        )
        assert [i for _t, i in delivered] == [0, 1]
        assert delivered[0][0] == pytest.approx(0.01)
        assert delivered[1][0] == pytest.approx(0.02)
        assert network.take_wait_time("b") == pytest.approx(0.01)

    def test_priority_link_preempts_a_bulk_transfer(self):
        # A 100 KB shipment from t=0 at 1 MB/s; a high-priority control
        # message at t=0.01 cuts in instead of waiting the full 0.1s.
        params = NetworkParams(bandwidth=1e6, transmission_delay=0.0)
        messages = [(0.0, 100_000, "bulk", 1.0, 0),
                    (0.01, 1_000, "ctl", 1.0, 9)]
        delivered, network = run_network_messages(
            messages, params=params, discipline="priority"
        )
        completion = {i: t for t, i in delivered}
        assert completion[1] == pytest.approx(0.011)
        assert completion[0] == pytest.approx(0.101)
        assert network.link.resource.preemptions == 1

    def test_fair_link_splits_bandwidth_by_weight(self):
        # Two backlogged senders saturate the link (each offers its next
        # message the instant the previous one serialized): over the
        # saturated interval the classes split the bandwidth 4:1.
        env = Environment()
        params = NetworkParams(bandwidth=1e6, transmission_delay=0.0)
        link = NetworkLink(env, params, make_discipline("fair"))
        served = {"a": 0, "c": 0}
        weights = {"a": 1.0, "c": 4.0}

        def sender(key):
            tag = ChargeTag(key=key, weight=weights[key])
            while env.now < 2.0:
                yield from link.transmit(10_000, tag)
                served[key] += 10_000

        for key in served:
            env.process(sender(key))
        env.run(until=2.0)
        total = sum(served.values())
        assert served["c"] / total == pytest.approx(4 / 5, rel=0.05)
        # Work conservation: the link never idled while senders waited.
        assert link.busy_time == pytest.approx(2.0, rel=0.01)

    def test_shared_link_accounts_waits_across_overlays(self):
        # Two Network overlays over one NetworkLink (the serving layer's
        # per-query networks): their messages queue behind each other.
        env = Environment()
        params = NetworkParams(bandwidth=1e6, transmission_delay=0.0)
        link = NetworkLink(env, params, make_discipline("fifo"))
        nets = [Network(env, params, link=link) for _ in range(2)]
        done = []
        for n in nets:
            n.register(0, lambda m: None)
            n.register(1, lambda m: done.append(env.now))

        def go(net, key):
            net.send(0, 1, "m", None, nbytes=50_000, tag=ChargeTag(key=key))
            yield env.timeout(0)

        env.process(go(nets[0], "q0"))
        env.process(go(nets[1], "q1"))
        env.run()
        assert done == [pytest.approx(0.05), pytest.approx(0.1)]
        assert link.wait_by_key == {"q1": pytest.approx(0.05)}
        assert nets[1].take_wait_time("q1") == pytest.approx(0.05)
        assert link.wait_by_key == {}  # taken, not read

    def test_link_requires_finite_bandwidth(self):
        env = Environment()
        with pytest.raises(ValueError):
            NetworkLink(env, NetworkParams())
        with pytest.raises(ValueError):
            NetworkParams(bandwidth=0.0)


class TestParamsValidation:
    def test_params_validate_all_disciplines(self):
        from repro.engine import ExecutionParams
        with pytest.raises(ValueError):
            ExecutionParams(disk_discipline="lifo")
        with pytest.raises(ValueError):
            ExecutionParams(net_discipline="edf")
        params = ExecutionParams(disk_discipline="priority",
                                 net_discipline="fair")
        assert params.disk_discipline == "priority"
        assert params.net_discipline == "fair"
