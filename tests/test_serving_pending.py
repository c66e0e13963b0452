"""The per-class pending FIFOs against the shared deque they replaced.

:class:`~repro.serving.pending.PendingQueues` answers every admission
question from the class heads.  The model it must reproduce is the one
queue kept *here*: a single arrival-ordered ``deque`` for all classes, a
per-class count mirror, class heads found by a front-to-back scan, and an
expiry sweep that rebuilds the deque whenever a head has expired.  On
arbitrary push / admit / expire streams the two agree after every step —
heads, expired requests *in shed order*, earliest deadline, length.  No
simulator: requests are hand-built and deadlines come straight from
:meth:`AdmissionController.shed_deadline`.
"""

from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving import AdmissionPolicy, ServiceClass
from repro.serving.admission import AdmissionController
from repro.serving.pending import PendingQueues, QueryRequest


class ReferenceSharedDeque:
    """One deque for every class, swept on expiry (the reference model)."""

    def __init__(self):
        self.pending = deque()
        self.classes = {}  # live pending count per class name

    def __len__(self):
        return len(self.pending)

    def push(self, request):
        self.pending.append(request)
        name = request.service_class.name
        self.classes[name] = self.classes.get(name, 0) + 1

    def heads(self):
        heads = {}
        for request in self.pending:
            name = request.service_class.name
            if name not in heads:
                heads[name] = request
                if len(heads) == len(self.classes):
                    break
        return list(heads.values())

    def _drop(self, request):
        name = request.service_class.name
        self.classes[name] -= 1
        if not self.classes[name]:
            del self.classes[name]

    def pop_head(self, request):
        self.pending.remove(request)
        self._drop(request)

    def pop_expired(self, now):
        cutoff = now + 1e-12
        if not any(r.shed_at is not None and r.shed_at <= cutoff
                   for r in self.heads()):
            return []
        kept, expired = deque(), []
        for request in self.pending:
            deadline = request.shed_at
            if deadline is not None and now >= deadline - 1e-12:
                expired.append(request)
                self._drop(request)
            else:
                kept.append(request)
        self.pending = kept
        return expired

    def earliest_deadline(self):
        deadlines = [r.shed_at for r in self.heads() if r.shed_at is not None]
        return min(deadlines) if deadlines else None


def make_request(seq, service_class, arrival_time, controller):
    request = QueryRequest(
        query_id=seq, plan=None, strategy="DP", seed=0,
        service_class=service_class, arrival_time=arrival_time, seq=seq,
        done=None,
    )
    request.shed_at, request.shed_reason = controller.shed_deadline(
        arrival_time, service_class
    )
    return request


def best_head(heads):
    """The admission order's first choice: class priority, then arrival."""
    return min(heads, key=lambda r: (-r.service_class.priority, r.seq))


def seqs(requests):
    return [request.seq for request in requests]


# Instants and timeouts are multiples of 1/8: exact in binary, so a
# deadline is never within the 1e-12 comparison slack of a sweep instant
# without being equal to it (the reference's head check adds the slack to
# ``now``, its sweep subtracts it from the deadline).
def eighths(lo, hi):
    return st.integers(min_value=lo, max_value=hi).map(lambda n: n / 8)


# Arrivals come faster than queues time out, and an expiry sweep may jump
# well ahead: several classes then expire in one sweep, interleaved.
timeouts = st.one_of(st.none(), eighths(1, 12))

class_lists = st.lists(
    st.tuples(timeouts, timeouts, st.integers(min_value=0, max_value=2)),
    min_size=1, max_size=3,
).map(lambda specs: [
    ServiceClass(f"c{i}", queue_timeout=timeout, latency_slo=slo,
                 priority=priority)
    for i, (timeout, slo, priority) in enumerate(specs)
])

operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=2),
                  eighths(0, 2)),
        st.tuples(st.just("admit"), st.just(0), st.just(0.0)),
        st.tuples(st.just("expire"), st.just(0), eighths(0, 16)),
    ),
    max_size=60,
)


class TestAgainstTheSharedDeque:
    @given(classes=class_lists, ops=operations, policy_timeout=timeouts,
           deadline_shedding=st.booleans())
    def test_every_step_agrees(self, classes, ops, policy_timeout,
                               deadline_shedding):
        controller = AdmissionController(None, AdmissionPolicy(
            queue_timeout=policy_timeout,
            deadline_shedding=deadline_shedding,
        ))
        model, queues = ReferenceSharedDeque(), PendingQueues()
        now, seq = 0.0, 0
        for kind, class_index, advance in ops:
            now += advance
            if kind == "push":
                cls = classes[class_index % len(classes)]
                request = make_request(seq, cls, now, controller)
                seq += 1
                model.push(request)
                queues.push(request)
            elif kind == "admit":
                if model.heads():
                    request = best_head(model.heads())
                    assert best_head(queues.heads()) is request
                    model.pop_head(request)
                    queues.pop_head(request)
            else:
                assert seqs(queues.pop_expired(now)) == seqs(
                    model.pop_expired(now))
            assert sorted(seqs(queues.heads())) == sorted(seqs(model.heads()))
            assert queues.earliest_deadline() == model.earliest_deadline()
            assert len(queues) == len(model)
            assert bool(queues) == bool(model.pending)

    def test_classes_expiring_together_are_shed_in_arrival_order(self):
        # Two classes, interleaved arrivals, one sweep: shed records,
        # trace events and ``done`` events must fire in the order the
        # shared deque would have fired them — by ``seq``, not class by
        # class (no end-to-end baseline notices the difference).
        controller = AdmissionController(None, AdmissionPolicy())
        a = ServiceClass("a", queue_timeout=1.0)
        b = ServiceClass("b", queue_timeout=0.5)
        model, queues = ReferenceSharedDeque(), PendingQueues()
        for seq, cls in enumerate([a, b, a, b, b, a]):
            request = make_request(seq, cls, 0.125 * seq, controller)
            model.push(request)
            queues.push(request)
        # at t=1.25: a's first two (deadlines 1.0, 1.25) and all of b
        # (0.625, 0.875, 1.0) have expired; a's third (1.625) survives
        expired = queues.pop_expired(1.25)
        assert seqs(expired) == [0, 1, 2, 3, 4]
        assert seqs(expired) == seqs(model.pop_expired(1.25))
        assert seqs(queues.heads()) == [5] and len(queues) == 1
        assert queues.earliest_deadline() == 1.625


class TestPendingQueues:
    def setup_method(self):
        self.controller = AdmissionController(None, AdmissionPolicy())
        self.a = ServiceClass("a", queue_timeout=1.0)
        self.b = ServiceClass("b")

    def request(self, seq, cls, at=0.0):
        return make_request(seq, cls, at, self.controller)

    def test_empty(self):
        queues = PendingQueues()
        assert not queues and len(queues) == 0
        assert queues.heads() == []
        assert queues.pop_expired(100.0) == []
        assert queues.earliest_deadline() is None

    def test_pop_head_refuses_a_non_head(self):
        queues = PendingQueues()
        first, second = self.request(0, self.a), self.request(1, self.a)
        queues.push(first)
        queues.push(second)
        with pytest.raises(ValueError, match="not the head"):
            queues.pop_head(second)
        assert len(queues) == 2  # refused, not half-applied
        queues.pop_head(first)
        queues.pop_head(second)
        with pytest.raises(ValueError, match="not the head"):
            queues.pop_head(second)  # its class is empty now
        with pytest.raises(ValueError, match="not the head"):
            queues.pop_head(self.request(2, self.b))  # class never seen
        assert not queues

    def test_a_class_without_a_deadline_never_expires_or_arms(self):
        queues = PendingQueues()
        queues.push(self.request(0, self.b))
        assert queues.earliest_deadline() is None
        assert queues.pop_expired(1e9) == []
        queues.push(self.request(1, self.a, at=2.0))
        assert queues.earliest_deadline() == 3.0
        assert seqs(queues.pop_expired(3.0)) == [1]
        assert seqs(queues.heads()) == [0]
