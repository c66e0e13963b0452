"""Per-node schedulers: messaging, global load balancing, end detection.

Section 4 of the paper: "an additional thread, called scheduler, is
created at each SM-node to deal with message-passing.  During execution,
the scheduler receives messages from the remote SM-nodes and directs them
to the queues of its SM-node.  The scheduler also manages inter-node
communication as needed for global load balancing and detection of
operator end."

**Global load balancing** (Sections 3.2 and 4): when a thread finds no
local work it signals its scheduler, which broadcasts a *starving* message
carrying the node's free memory (and, as the Section 4 optimization, the
set of hash-table copies it already holds).  Each remote scheduler selects
its best candidate queue by benefit/overhead — activations removed versus
bytes shipped — under the paper's conditions: (i) the requester can store
the data, (ii) enough work to amortize, (iii) not too much (the steal
fraction), (iv) probe activations only, (v) unblocked operators only, and
the requester must be in the operator's home.  The requester then acquires
from the most loaded offering node.

**Operator-end detection**: the engine tracks the ground truth exactly
(``OperatorRuntime.outstanding``); :func:`run_end_detection` charges the
protocol's 4(n-1) messages and four transmission delays before the
termination takes effect, reproducing both the cost and the
detection latency the paper analyses.

Scheduler CPU time is modelled as latency on the messages it handles (the
paper's scheduler thread shares the node's processors; see
ARCHITECTURE.md, "Choices the paper leaves open").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from ..optimizer.operator_tree import OpKind
from ..sim.network import Message
from .activation import DataActivation, GroupId
from .context import ExecutionContext, NodeState
from .opstate import OperatorRuntime
from .runlog import StealRound, StealTransfer

__all__ = ["NodeScheduler", "run_end_detection", "StealCandidate"]


@dataclass(frozen=True)
class StealCandidate:
    """A provider-side offer: one queue worth stealing from."""

    op_id: int
    join_id: int
    queue_index: int
    steal_count: int
    hash_bytes: int
    activation_bytes: int

    @property
    def overhead(self) -> int:
        return self.hash_bytes + self.activation_bytes

    @property
    def ratio(self) -> float:
        """Benefit/overhead: activations gained per byte shipped."""
        return self.steal_count / (self.overhead + 1)


@dataclass
class _StealRound:
    """Requester-side state of one in-flight steal round."""

    scope: Optional[int]
    expected_replies: int
    offers: dict[int, tuple[Optional[StealCandidate], int]] = field(
        default_factory=dict
    )


class NodeScheduler:
    """The scheduler thread of one SM-node (message dispatch + LB)."""

    def __init__(self, context: ExecutionContext, node: NodeState):
        self.context = context
        self.node = node
        self.rounds: dict[Optional[int], _StealRound] = {}
        self._last_round_at: dict[Optional[int], float] = {}
        context.network.register(node.node_id, self.deliver)
        node.scheduler = self

    # -- message dispatch ---------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Network delivery callback: route by message kind."""
        kind = message.kind
        if kind == "data":
            if not self.context.done:
                self.context.deliver_data_activation(message.payload)
        elif kind == "credit":
            self.context.on_credit_message(self.node.node_id, message.payload)
        elif kind == "starving":
            self._on_starving(message)
        elif kind == "offer":
            self._on_offer(message)
        elif kind == "acquire":
            self._on_acquire(message)
        elif kind == "steal_data":
            self._on_steal_data(message)
        # end-detection kinds (end_queues / end_confirm_request /
        # end_confirm_reply / end_terminate) carry no receiver action: the
        # coordinating process drives the state; messages exist for their
        # cost and latency.

    # -- idle threads / starving --------------------------------------------

    def on_thread_idle(self, thread) -> None:
        """A thread found no local activation: maybe go steal (Section 3.2).

        DP steals at node scope (an idle thread implies the whole node is
        starving, since any thread can run anything); FP steals per
        assigned probe operator (an idle processor only proves *its*
        operator is starving here).

        The idle signal is additionally a *machine-wide* fact — this
        physical node has CPU to spare — so it is forwarded to the
        machine's cross-query broker, if the serving layer installed one,
        which may trigger the steal protocol of co-resident queries toward
        this node (see :class:`repro.serving.broker.CrossQueryBroker`).
        """
        context = self.context
        if context.done or context.config.nodes < 2:
            return
        if context.params.enable_global_lb:
            self._maybe_start_rounds(
                context.strategy.steal_scopes(context, thread)
            )
        broker = context.substrate.broker
        if broker is not None:
            broker.on_node_starving(self.node.node_id, context)

    def on_machine_starving(self) -> None:
        """Cross-query broker hook: the physical node has idle CPU.

        Starts steal rounds for *this* query from the starving node, so
        its backlog elsewhere migrates onto the idle machine share.  The
        rounds run the unmodified Section 4 protocol — the provider side
        still audits the paper's five conditions, with condition (i)
        evaluated against the shared node pool and the provider ranking
        already machine-wide — only the trigger is new.
        """
        context = self.context
        if context.done or not context.params.enable_global_lb:
            return
        if context.config.nodes < 2:
            return
        self._maybe_start_rounds(
            context.strategy.cross_steal_scopes(context, self.node),
            cross=True,
        )

    def _maybe_start_rounds(self, scopes, cross: bool = False) -> None:
        """Start a steal round per scope, subject to cooldown/latch guards.

        Broker-initiated (``cross``) rounds skip the failed-round latch:
        the latch is cleared by *local* queue pushes only, so it cannot
        see backlog growing on remote nodes — which is precisely the
        machine-wide signal the broker is delivering.  The cooldown still
        applies, bounding the protocol traffic either way.

        On an elastic cluster a *draining* node never initiates a round:
        stealing pulls work onto the thief, and this node is trying to
        empty out so it can leave.
        """
        context = self.context
        membership = context.substrate.membership
        if membership is not None and membership.is_draining(self.node.node_id):
            return
        logger = context.substrate.logger
        now = context.env.now
        for scope in scopes:
            if scope in self.rounds:
                continue
            if not cross and scope in self.node.lb_blocked_scopes:
                continue
            last = self._last_round_at.get(scope)
            if last is not None and now - last < context.params.steal_cooldown:
                continue
            self._last_round_at[scope] = now
            self._start_round(scope)
            if cross:
                context.metrics.cross_steal_rounds += 1
            if logger.enabled:
                logger.log(StealRound(
                    time=now, query_id=context.query_id,
                    node_id=self.node.node_id, scope=scope, cross=cross,
                ))

    def _start_round(self, scope: Optional[int]) -> None:
        context = self.context
        others = [n for n in range(context.config.nodes) if n != self.node.node_id]
        self.rounds[scope] = _StealRound(scope, expected_replies=len(others))
        context.metrics.steal_rounds += 1
        cached = frozenset(
            key for key in self._cached_copy_keys()
        )
        payload = {
            "requester": self.node.node_id,
            "scope": scope,
            "free_memory": self.node.smnode.available,
            "cached": cached,
        }
        for other in others:
            context.network.send(self.node.node_id, other, "starving",
                                 payload, nbytes=64, purpose="control",
                                 tag=context.charge_tag)

    def _cached_copy_keys(self) -> set[tuple[int, GroupId]]:
        copies = self.node.store._copies  # read-only peek for the cache list
        return set(copies)

    # -- provider side ----------------------------------------------------------

    def _on_starving(self, message: Message) -> None:
        context = self.context
        payload = message.payload
        requester = payload["requester"]
        candidate = None
        if not context.done:
            candidate = self._best_candidate(
                requester, payload["scope"], payload["free_memory"],
                payload["cached"],
            )
        reply = {
            "provider": self.node.node_id,
            "scope": payload["scope"],
            "candidate": candidate,
            # Machine-wide pressure (all queries on this node), so the
            # requester ranks providers by true load under multiprogramming.
            "load": context.substrate.node_load(self.node.node_id),
        }
        context.network.send(self.node.node_id, requester, "offer",
                             reply, nbytes=48, purpose="control",
                             tag=context.charge_tag)

    def _best_candidate(self, requester: int, scope: Optional[int],
                        free_memory: int,
                        cached: frozenset) -> Optional[StealCandidate]:
        """The queue with the best benefit/overhead ratio (Section 4)."""
        context = self.context
        params = context.params
        best: Optional[StealCandidate] = None
        for op_id, queue_set in self.node.queue_sets.items():
            runtime = context.ops[op_id]
            # Condition (iv): only probe activations move (triggers need
            # local disks, builds would build the hash table remotely).
            if runtime.kind is not OpKind.PROBE:
                continue
            # Condition (v): no gain in moving blocked (or memory-
            # preempted) work.
            if runtime.terminated or runtime.blocked or runtime.suspended:
                continue
            if scope is not None and op_id != scope:
                continue
            # The requester must be in the operator's home.
            if requester not in runtime.home:
                continue
            join_id = runtime.op.join_id
            for queue_index in range(len(queue_set.items)):
                length = queue_set.size(queue_index)
                # Condition (ii): enough work to amortize the acquisition.
                if length < params.min_steal_activations:
                    continue
                # Condition (iii): not too much — the steal fraction.
                steal_count = max(1, int(length * params.steal_fraction))
                group = (self.node.node_id, queue_index)
                hash_bytes = 0
                if (join_id, group) not in cached:
                    hash_bytes = self.node.store.table_bytes(join_id, group)
                mean_bytes = (queue_set.bytes_queued[queue_index]
                              / max(1, length))
                activation_bytes = int(mean_bytes * steal_count)
                # Condition (i): it must fit in the requester's memory.
                if hash_bytes + activation_bytes > free_memory:
                    continue
                candidate = StealCandidate(
                    op_id=op_id, join_id=join_id, queue_index=queue_index,
                    steal_count=steal_count, hash_bytes=hash_bytes,
                    activation_bytes=activation_bytes,
                )
                if best is None or candidate.ratio > best.ratio:
                    best = candidate
        return best

    def _on_acquire(self, message: Message) -> None:
        context = self.context
        payload = message.payload
        candidate: StealCandidate = payload["candidate"]
        requester = payload["requester"]
        queue_set = self.node.queue_sets.get(candidate.op_id)
        stolen: list[DataActivation] = []
        if queue_set is not None and not context.ops[candidate.op_id].terminated:
            stolen = queue_set.steal_from(candidate.queue_index,
                                          candidate.steal_count)
            # Stolen activations leave the queue without being consumed
            # here: their flow-control credits must still go back to the
            # senders, and freed slots may unblock parked local batches.
            owed: dict[int, int] = {}
            for activation in stolen:
                if activation.remote and activation.src_node >= 0:
                    owed[activation.src_node] = owed.get(activation.src_node, 0) + 1
            cell = (self.node.node_id, candidate.queue_index)
            for src, count in owed.items():
                context.return_credits(self.node.node_id, src,
                                       candidate.op_id, cell, count)
            producer_id = context.producer_of.get(candidate.op_id)
            if producer_id is not None:
                channel = context.channels.get((self.node.node_id, producer_id))
                if channel is not None:
                    channel.on_local_space(candidate.queue_index)
        hash_info = None
        if stolen and candidate.hash_bytes > 0:
            table = self.node.store.local_table(
                candidate.join_id, (self.node.node_id, candidate.queue_index)
            )
            if table is not None:
                hash_info = (table.tuples, table.nbytes)
        activation_bytes = sum(a.nbytes for a in stolen)
        hash_bytes = hash_info[1] if hash_info else 0
        nbytes = activation_bytes + hash_bytes
        reply = {
            "scope": payload["scope"],
            "op_id": candidate.op_id,
            "join_id": candidate.join_id,
            "group": (self.node.node_id, candidate.queue_index),
            "activations": stolen,
            "hash_info": hash_info,
        }
        # The provider's scheduler serializes the shipment: its CPU cost
        # appears as extra latency before the message leaves.
        serialize = context.instructions_time(
            context.params.network.send_instructions(max(1, nbytes))
        )
        env = context.env

        def _ship():
            yield env.timeout(serialize)
            context.network.send(self.node.node_id, requester, "steal_data",
                                 reply, nbytes=nbytes, purpose="loadbalance",
                                 tag=context.charge_tag)

        context.spawn(_ship(), f"ship:{self.node.node_id}->{requester}")

    # -- requester side -------------------------------------------------------------

    def _on_offer(self, message: Message) -> None:
        payload = message.payload
        round_ = self.rounds.get(payload["scope"])
        if round_ is None:
            return
        round_.offers[payload["provider"]] = (payload["candidate"], payload["load"])
        if len(round_.offers) < round_.expected_replies:
            return
        # All replies in: pick the most loaded provider that offered.
        providers = [
            (load, provider, candidate)
            for provider, (candidate, load) in round_.offers.items()
            if candidate is not None
        ]
        if not providers:
            del self.rounds[round_.scope]
            self.node.lb_blocked_scopes.add(round_.scope)
            return
        providers.sort(key=lambda t: (-t[0], t[1]))
        load, provider, candidate = providers[0]
        request = {
            "requester": self.node.node_id,
            "scope": round_.scope,
            "candidate": candidate,
        }
        self.context.network.send(self.node.node_id, provider, "acquire",
                                  request, nbytes=48, purpose="control",
                                  tag=self.context.charge_tag)

    def _on_steal_data(self, message: Message) -> None:
        context = self.context
        payload = message.payload
        self.rounds.pop(payload["scope"], None)
        activations: list[DataActivation] = payload["activations"]
        if not activations:
            self.node.lb_blocked_scopes.add(payload["scope"])
            return
        # The requester's scheduler deserializes before the work is usable.
        receive = context.instructions_time(
            context.params.network.receive_instructions(max(1, message.nbytes))
        )
        env = context.env

        def _install():
            yield env.timeout(receive)
            self._install_stolen(payload)

        context.spawn(_install(), f"install:{self.node.node_id}")

    def _install_stolen(self, payload: dict) -> None:
        context = self.context
        op_id = payload["op_id"]
        join_id = payload["join_id"]
        group: GroupId = payload["group"]
        activations: list[DataActivation] = payload["activations"]
        hash_info = payload["hash_info"]
        store = self.node.store
        if hash_info is not None and not store.has_copy(join_id, group):
            tuples, nbytes = hash_info
            if self.node.smnode.can_reserve(nbytes):
                store.install_copy(join_id, group, tuples, nbytes)
            else:
                # Memory changed since the offer: account the copy without
                # reserving (rare; keeps the execution correct).
                store.install_copy(join_id, group, tuples, 0)
            context.metrics.hash_bytes_shipped += nbytes
        elif hash_info is None and store.has_copy(join_id, group):
            context.metrics.cache_hits += 1
        queue_set = self.node.queue_sets[op_id]
        k = len(queue_set.items)
        for i, activation in enumerate(activations):
            local = dataclasses.replace(activation, remote=False, src_node=-1)
            queue_set.push(i % k, local, force=True)
        context.metrics.steals_succeeded += 1
        context.metrics.activations_stolen += len(activations)
        logger = context.substrate.logger
        if logger.enabled:
            shipped = 0
            if hash_info is not None:
                shipped = hash_info[1]
            logger.log(StealTransfer(
                time=context.env.now, query_id=context.query_id,
                src_node=group[0], dst_node=self.node.node_id,
                activations=len(activations), hash_bytes=shipped,
            ))
        self.node.wake_all()


def run_end_detection(context: ExecutionContext, runtime: OperatorRuntime):
    """The Section 4 operator-end protocol, as a simulation process.

    Single-home operators terminate through the local scheduler at no
    message cost.  Otherwise the coordinator (first home node) collects
    ``EndofQueuesAtNode`` from every other home node, runs a confirmation
    round ("there may still be threads processing activations"), and
    broadcasts the termination — 4(n-1) messages and four transmission
    delays, "cheap (4n inter-node messages) and minimizes the delay
    between end of operator and detection".
    """
    home = runtime.home
    if len(home) < 2:
        context.terminate_op(runtime)
        return
    coordinator = home[0]
    others = home[1:]
    delay = context.params.network.transmission_delay
    env = context.env
    network = context.network
    op_id = runtime.op_id
    tag = context.charge_tag

    for node_id in others:
        network.send(node_id, coordinator, "end_queues", op_id,
                     nbytes=16, purpose="control", tag=tag)
    yield env.timeout(delay)
    for node_id in others:
        network.send(coordinator, node_id, "end_confirm_request", op_id,
                     nbytes=16, purpose="control", tag=tag)
    yield env.timeout(delay)
    for node_id in others:
        network.send(node_id, coordinator, "end_confirm_reply", op_id,
                     nbytes=16, purpose="control", tag=tag)
    yield env.timeout(delay)
    for node_id in others:
        network.send(coordinator, node_id, "end_terminate", op_id,
                     nbytes=16, purpose="control", tag=tag)
    yield env.timeout(delay)
    # No new work can have appeared: producers were done and no
    # activations existed when the protocol started.
    assert runtime.outstanding == 0 and runtime.producers_done, (
        f"end-detection raced for {runtime.label}"
    )
    context.terminate_op(runtime)
