"""Inter-node message-passing model with a schedulable interconnect.

Reproduces the paper's simulated network (Section 5.1.1):

=================================  ============
Bandwidth (based on [Mehta95])     infinite
End-to-end transmission delay      0.5 ms
CPU cost for sending 8 K bytes     10000 instr
CPU cost for receiving 8 K bytes   10000 instr
=================================  ============

With the paper's infinite bandwidth, messages never queue in the network:
every message arrives exactly ``delay`` after it is sent.  The *CPU*
costs of sending and receiving are what make communication expensive, and
they are charged to the sending/receiving node-scheduler threads by the
engine (this module only computes them).

Setting :attr:`NetworkParams.bandwidth` to a finite byte rate turns the
interconnect into a service resource like the processors and disks: each
message holds the shared link (:class:`NetworkLink`, a capacity-1
:class:`~repro.sim.core.Resource`) for its serialization time before the
propagation delay, and the link's
:class:`~repro.sim.core.SchedulingDiscipline` — the same ``"fifo"`` /
``"fair"`` / ``"priority"`` registry the CPUs and disks use — orders the
waiting messages by their :class:`~repro.sim.core.ChargeTag`.  Per-class
link queueing is observable through :meth:`NetworkLink.take_wait_time`, which
the serving layer reads back into per-class network queueing-delay
metrics.  A :class:`NetworkLink` can be shared by several
:class:`Network` overlays (the serving layer's per-query networks all
charge the one physical interconnect).

The network keeps global and per-purpose traffic statistics; the Section 5.3
experiment ("FP requires 9 MB to be transferred versus 2.5 MB for DP") reads
them back through :meth:`Network.bytes_for`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .core import (ChargeTag, DEFAULT_TAG, Environment, Event, Resource,
                   SchedulingDiscipline)

__all__ = ["NetworkParams", "Message", "Network", "NetworkLink",
           "REBALANCE_TAG"]

#: the charge tag of elastic-cluster rebalance shipments.  Partition
#: migration is background traffic: on a finite-bandwidth link it runs
#: at half a query's fair share and below default priority, so moving
#: data onto a joining node never starves the queries the node is being
#: added *for*.  Under FIFO (the paper's default) the tag is inert, like
#: every other tag.
REBALANCE_TAG = ChargeTag(key="rebalance", weight=0.5, priority=-1)


@dataclass(frozen=True)
class NetworkParams:
    """Network timing/cost parameters (defaults from the paper)."""

    transmission_delay: float = 0.5e-3
    send_instructions_per_8k: int = 10_000
    receive_instructions_per_8k: int = 10_000
    message_unit: int = 8 * 1024
    #: link bandwidth in bytes/second; ``None`` is the paper's infinite
    #: interconnect (no queueing, scheduling disciplines are moot).
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError(
                f"bandwidth must be positive (or None), got {self.bandwidth}"
            )

    def send_instructions(self, nbytes: int) -> int:
        """CPU instructions the sender pays for an ``nbytes`` message."""
        units = max(1, -(-nbytes // self.message_unit))  # ceil division
        return units * self.send_instructions_per_8k

    def receive_instructions(self, nbytes: int) -> int:
        """CPU instructions the receiver pays for an ``nbytes`` message."""
        units = max(1, -(-nbytes // self.message_unit))
        return units * self.receive_instructions_per_8k

    def serialization_time(self, nbytes: int) -> float:
        """Link holding time of an ``nbytes`` message (0 when infinite)."""
        if self.bandwidth is None:
            return 0.0
        return nbytes / self.bandwidth


@dataclass(slots=True)
class Message:
    """One inter-node message.

    ``purpose`` tags the traffic class so experiments can separate control
    messages (starving / end-detection) from load-balancing data shipments
    (hash tables + activations).
    """

    src: int
    dst: int
    kind: str
    payload: Any
    nbytes: int
    purpose: str = "control"
    sent_at: float = 0.0


class NetworkLink:
    """The shared interconnect as a scheduled capacity-1 resource.

    One link instance models the physical interconnect; any number of
    :class:`Network` overlays (one per query, under the serving layer)
    transmit through it, so their messages queue behind *each other* under
    the link's discipline.  Queueing time is accounted per
    :class:`~repro.sim.core.ChargeTag` key, machine-wide.
    """

    def __init__(self, env: Environment, params: NetworkParams,
                 discipline: Optional[SchedulingDiscipline] = None):
        if params.bandwidth is None:
            raise ValueError("a NetworkLink needs finite bandwidth")
        self.env = env
        self.params = params
        self.resource = Resource(env, capacity=1, name="net:link",
                                 discipline=discipline)
        # --- statistics -------------------------------------------------
        self.busy_time = 0.0
        self.wait_time = 0.0
        #: ChargeTag key -> link queueing time of that class's messages.
        self.wait_by_key: dict[str, float] = {}

    def take_wait_time(self, key: str) -> float:
        """Queued time accumulated by messages tagged with ``key``, which
        is forgotten (a finished query takes its total with it)."""
        return self.wait_by_key.pop(key, 0.0)

    def close(self) -> None:
        """Retire the link's resource (see :meth:`Resource.close`)."""
        self.resource.close()

    def transmit(self, nbytes: int, tag: ChargeTag):
        """Hold the link for the message's serialization; ``yield from``."""
        service = self.params.serialization_time(nbytes)
        started = self.env.now
        yield from self.resource.use(service, tag)
        self.busy_time += service
        waited = self.env.now - started - service
        if waited > 1e-15:
            self.wait_time += waited
            self.wait_by_key[tag.key] = self.wait_by_key.get(tag.key, 0.0) + waited


class Network:
    """Fixed-delay network, optionally throttled by a scheduled link.

    Each node registers a delivery callback (its scheduler's inbox).  With
    the paper's infinite bandwidth the network schedules the callback
    ``transmission_delay`` after the send — no queueing, and message tags
    are inert.  With finite bandwidth every message first serializes over
    :attr:`link` (shared hardware, possibly spanning several overlays)
    under the link's scheduling discipline, then propagates.
    """

    def __init__(self, env: Environment, params: Optional[NetworkParams] = None,
                 link: Optional[NetworkLink] = None,
                 discipline: Optional[SchedulingDiscipline] = None):
        self.env = env
        self.params = params or NetworkParams()
        #: the shared physical link (None on the infinite-bandwidth path).
        self.link = link
        if self.link is None and self.params.bandwidth is not None:
            self.link = NetworkLink(env, self.params, discipline)
        self._inboxes: dict[int, Callable[[Message], None]] = {}
        #: messages sent and not yet delivered.
        self.in_flight = 0
        #: called whenever ``in_flight`` drops to zero, if set (an owner
        #: waiting for its last message before it tears down).
        self.on_drained: Optional[Callable[[], None]] = None
        # --- statistics -------------------------------------------------
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_by_purpose: dict[str, int] = defaultdict(int)
        self.bytes_by_purpose: dict[str, int] = defaultdict(int)

    def register(self, node_id: int, deliver: Callable[[Message], None]) -> None:
        """Install the delivery callback for ``node_id`` (its scheduler)."""
        if node_id in self._inboxes:
            raise ValueError(f"node {node_id} already registered")
        self._inboxes[node_id] = deliver

    def close(self) -> None:
        """Drop the delivery callbacks and the drain hook: the overlay's
        owner is done and nothing is in flight (a later send raises)."""
        self._inboxes = {}
        self.on_drained = None

    def send(self, src: int, dst: int, kind: str, payload: Any,
             nbytes: int, purpose: str = "control",
             tag: Optional[ChargeTag] = None) -> Message:
        """Send a message; it is delivered after the transmission delay.

        ``tag`` carries the sending query's service-class attributes; it
        orders the message on a finite-bandwidth link and is inert (like
        CPU and disk tags under FIFO) on the infinite-bandwidth path.

        Local sends (``src == dst``) are rejected: intra-node communication
        goes through shared memory in the engine, never the network.
        """
        if src == dst:
            raise ValueError("intra-node messages must use shared memory")
        if dst not in self._inboxes:
            raise KeyError(f"no node {dst} registered on the network")
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        message = Message(src, dst, kind, payload, nbytes, purpose, self.env.now)
        self.in_flight += 1
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self.messages_by_purpose[purpose] += 1
        self.bytes_by_purpose[purpose] += nbytes

        if self.link is None:
            # Two heap entries, no process: a departure at ``now`` whose
            # callback schedules the arrival ``transmission_delay`` later.
            # The departure hop is kept (rather than scheduling the arrival
            # directly) because the arrival's sequence number must be drawn
            # when the departure fires, as a process's first timeout was,
            # or it would reorder against same-instant arrivals.
            self.env.event().succeed(message).callbacks.append(self._depart)
            return message

        link = self.link
        deliver = self._inboxes[dst]

        def _deliver_process():
            yield from link.transmit(nbytes, tag or DEFAULT_TAG)
            yield self.env.timeout(self.params.transmission_delay)
            deliver(message)
            self._delivered()

        self.env.process(_deliver_process(), name=f"net:{kind}:{src}->{dst}")
        return message

    def _depart(self, departure: Event) -> None:
        """Infinite bandwidth: the message leaves; schedule its arrival."""
        self.env.timeout(self.params.transmission_delay,
                         departure._value).callbacks.append(self._arrive)

    def _arrive(self, arrival: Event) -> None:
        message = arrival._value
        self._inboxes[message.dst](message)
        # After the inbox ran: replies it sent keep the overlay busy.
        self.in_flight -= 1
        if not self.in_flight and self.on_drained is not None:
            self.on_drained()

    def _delivered(self) -> None:
        """``_arrive``'s bookkeeping, for the finite-bandwidth path."""
        self.in_flight -= 1
        if not self.in_flight and self.on_drained is not None:
            self.on_drained()

    def bytes_for(self, purpose: str) -> int:
        """Total bytes sent with the given ``purpose`` tag."""
        return self.bytes_by_purpose.get(purpose, 0)

    def messages_for(self, purpose: str) -> int:
        """Total messages sent with the given ``purpose`` tag."""
        return self.messages_by_purpose.get(purpose, 0)
