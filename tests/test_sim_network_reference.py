"""Infinite-bandwidth delivery against a process-per-message reference.

On the paper's infinite-bandwidth interconnect :meth:`Network.send`
delivers through a two-entry callback chain: a departure event at ``now``
whose callback schedules the arrival timeout, whose callback calls the
destination's inbox.  The model it must reproduce is kept *here*
(:func:`reference_send`): one simulation process per message that yields
the transmission-delay timeout and then delivers.  On arbitrary send
schedules — many sends at one instant, sends interleaved with unrelated
same-instant events, sends made from inside delivery callbacks — the
two deliver at identical instants in an identical order.

The chain draws two sequence numbers per message where the process drew
three (the third was the finished process's own callback-less completion
event), and constructs no :class:`~repro.sim.core.Process`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment, Process
from repro.sim.network import Message, Network

DELAY = Network(Environment()).params.transmission_delay
NODES = 3


def reference_send(network, src, dst, kind, payload, nbytes,
                   purpose="control"):
    """``Network.send`` on the infinite-bandwidth path as a process per
    message (the reference model)."""
    env = network.env
    message = Message(src, dst, kind, payload, nbytes, purpose, env.now)
    network.messages_sent += 1
    network.bytes_sent += nbytes
    network.messages_by_purpose[purpose] += 1
    network.bytes_by_purpose[purpose] += nbytes
    deliver = network._inboxes[dst]

    def _deliver_process():
        yield env.timeout(network.params.transmission_delay)
        deliver(message)

    env.process(_deliver_process(), name=f"net:{kind}:{src}->{dst}")
    return message


def fast_send(network, src, dst, kind, payload, nbytes, purpose="control"):
    return network.send(src, dst, kind, payload, nbytes, purpose)


# One action: (slot, what, src, dst, depth).  ``slot`` is a multiple of
# half the transmission delay, so arrivals land on later send instants;
# ``what`` is a send, or an unrelated timeout of 0 or one delay (its
# entry races the messages' entries at the same instant); ``depth`` is
# how many generations of replies a delivered message spawns.
ACTIONS = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from(["send", "mark0", "markd"]),
              st.integers(0, NODES - 1), st.integers(0, NODES - 1),
              st.integers(0, 2)),
    min_size=1, max_size=24,
)


def run_schedule(actions, send):
    """Run ``actions`` with ``send`` as the message primitive; return the
    log of every delivery and mark, with its instant, in firing order."""
    env = Environment()
    network = Network(env)
    log = []
    ids = iter(range(10_000))

    def inbox(node):
        def deliver(message):
            msg_id, depth = message.payload
            log.append((env.now, "deliver", node, msg_id, message.sent_at))
            for reply in range(depth):
                # Replies from inside the delivery callback, to both other
                # nodes alternately, each one generation shallower.
                target = (node + 1 + reply % 2) % NODES
                send(network, node, target, "reply",
                     (next(ids), depth - 1), 16)
        return deliver

    for node in range(NODES):
        network.register(node, inbox(node))

    def mark(label):
        return lambda _event: log.append((env.now, "mark", label))

    def play():
        for index, (slot, what, src, dst, depth) in sorted(
                enumerate(actions), key=lambda item: item[1][0]):
            when = slot * DELAY / 2
            if when > env.now:
                yield env.timeout_at(when)
            if what == "send":
                if dst == src:
                    dst = (src + 1) % NODES
                send(network, src, dst, "data", (next(ids), depth), 64)
            else:
                delay = 0 if what == "mark0" else DELAY
                env.timeout(delay).callbacks.append(mark(index))

    env.process(play())
    end = env.run()
    stats = (network.messages_sent, network.bytes_sent,
             dict(network.messages_by_purpose))
    return log, stats, end


@settings(max_examples=150)
@given(ACTIONS)
def test_callback_chain_delivers_like_a_process_per_message(actions):
    fast = run_schedule(actions, fast_send)
    reference = run_schedule(actions, reference_send)
    assert fast == reference


def test_many_sends_at_one_instant_keep_their_order():
    actions = [(0, "send", i % NODES, (i + 1) % NODES, 1) for i in range(12)]
    actions += [(2, "mark0", 0, 0, 0), (0, "markd", 0, 0, 0)]
    fast, reference = (run_schedule(actions, fast_send),
                       run_schedule(actions, reference_send))
    assert fast == reference
    deliveries = [entry for entry in fast[0] if entry[1] == "deliver"]
    assert len(deliveries) == 24  # 12 sends + one reply each


class CountingCounter:
    """Stands in for ``Environment._counter``: counts sequence draws."""

    def __init__(self):
        self.draws = 0

    def __next__(self):
        self.draws += 1
        return self.draws


def _one_message(send, monkeypatch):
    processes = []
    original = Process.__init__

    def counting_init(self, *args, **kwargs):
        processes.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    env = Environment()
    counter = env._counter = CountingCounter()
    network = Network(env)
    delivered = []
    network.register(0, delivered.append)
    network.register(1, delivered.append)
    message = send(network, 0, 1, "data", "payload", 100)
    env.run()
    assert delivered == [message]
    assert env.now == DELAY
    return counter.draws, len(processes)


def test_a_message_is_two_heap_entries_and_no_process(monkeypatch):
    assert _one_message(fast_send, monkeypatch) == (2, 0)


def test_the_reference_drew_three_and_built_a_process(monkeypatch):
    # The guard bites: the process-per-message path it replaced costs one
    # more sequence draw (the completion event) and one Process.
    assert _one_message(reference_send, monkeypatch) == (3, 1)


def test_message_has_slots():
    message = Message(0, 1, "data", None, 8)
    assert not hasattr(message, "__dict__")
