"""Preemptive memory management (``AdmissionPolicy.memory_preemption``).

A head-of-line query blocked on the memory gate alone may *suspend* a
running lower-priority query's hash build: its reserved bytes spill back
to the node pools and reload when the preemptor resolves.  The decisions
are pure module-level functions, unit-tested on hand-built state in
``tests/test_serving_policies.py``; :class:`MemoryPreemptor` is the timed
machinery around them and is handed what it uses, never the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..optimizer.operator_tree import OpKind
from .trace import QueryPreempted, QueryResumed

__all__ = ["MemoryPreemptor", "spillable_joins", "select_victim",
           "greedy_cover", "spill_seconds", "reload_seconds"]


def _join_bytes(joins) -> int:
    return sum(sum(per_node.values())
               for _runtime, _join_id, per_node in joins)


def spillable_joins(context, shortfall):
    """``[(runtime to suspend, join id, {shortfall node: bytes})]``.

    A join's hash table is preemptible in two phases, with a
    different operator frozen in each:

    * **building** — the build runtime is live: suspend *it* (the
      probe is already blocked behind the unfinished build, so the
      table has no reader);
    * **probing** — the build terminated but its table persists until
      probe end: suspend the *probe*, the table's only reader.

    A join whose probe also finished has released its table (nothing
    to spill), and an already-suspended operator is skipped — one
    preemption per join at a time.
    """
    live = {}
    for runtime in context.ops.values():
        if runtime.terminated or runtime.ending or runtime.suspended:
            continue
        live[(runtime.op.kind, runtime.op.join_id)] = runtime
    joins = []
    for runtime in context.ops.values():
        op = runtime.op
        if op.kind is not OpKind.BUILD:
            continue
        target = live.get((OpKind.BUILD, op.join_id))
        if target is None:
            target = live.get((OpKind.PROBE, op.join_id))
        if target is None:
            continue
        per_node = {}
        for node_id in shortfall:
            if node_id >= len(context.nodes):
                continue
            nbytes = context.nodes[node_id].store.spillable_bytes(
                op.join_id
            )
            if nbytes > 0:
                per_node[node_id] = nbytes
        if per_node:
            joins.append((target, op.join_id, per_node))
    return joins


def select_victim(running: Iterable, request, shortfall):
    """Best suspension victim: most spillable bytes where they matter.

    Eligible victims (among the ``running`` requests) run at strictly
    lower class priority than the blocked ``request`` and have at least
    one live (not terminated, not ending, not already suspended) hash
    build holding reserved bytes on a shortfall node (an SP execution
    has no operator runtimes, hence none).  Rank by those bytes, query id
    as the deterministic tiebreak.  Returns
    ``(victim, joins)`` or None.
    """
    best = None
    best_key = None
    for victim in running:
        context = victim.context
        if context is None or context.done:
            continue
        if (victim.service_class.priority
                >= request.service_class.priority):
            continue
        joins = spillable_joins(context, shortfall)
        if not joins:
            continue
        key = (-_join_bytes(joins), victim.query_id)
        if best_key is None or key < best_key:
            best, best_key = (victim, joins), key
    return best


def greedy_cover(joins, shortfall):
    """Smallest useful prefix of the biggest-first join list.

    Spilling (and later reloading) a join the shortfall does not
    need is pure overhead — every spilled byte is priced through the
    network/disk models twice.  Take joins in descending spillable
    size (join id as the deterministic tiebreak) and stop as soon as
    every shortfall node is covered; if even the full set cannot
    cover, spill it all (partial relief still unblocks the gate
    sooner than waiting for the victim's own releases).
    """
    ordered = sorted(
        joins,
        key=lambda j: (-sum(j[2].values()), j[1]),
    )
    chosen = []
    covered = dict.fromkeys(shortfall, 0)
    for target, join_id, per_node in ordered:
        chosen.append((target, join_id, per_node))
        for node_id, nbytes in per_node.items():
            covered[node_id] += nbytes
        if all(covered[node_id] >= need
               for node_id, need in shortfall.items()):
            break
    return chosen


def spill_seconds(context, nbytes: int) -> float:
    """Price of shipping ``nbytes`` of hash table out of memory.

    The same shape as a steal page transfer — serialize the pages
    (network send instructions at the victim's CPU speed), then
    stream them at the disk transfer rate (the spill target).
    """
    params = context.params
    serialize = context.instructions_time(
        params.network.send_instructions(max(1, nbytes))
    )
    return serialize + nbytes / params.disk.transfer_rate


def reload_seconds(context, nbytes: int) -> float:
    """Price of reading spilled bytes back in (the resume path)."""
    params = context.params
    deserialize = context.instructions_time(
        params.network.receive_instructions(max(1, nbytes))
    )
    return deserialize + nbytes / params.disk.transfer_rate


@dataclass(slots=True, eq=False)
class _Preemption:
    """One in-flight victim suspension: spill state and resume latch."""

    #: the admission candidate the spill frees memory for.
    request: object
    #: the batch query whose hash build is being suspended.
    victim: object
    #: ``[(suspended runtime, join id, {shortfall node: spillable
    #: bytes})]`` — the runtime is the join's build while building, its
    #: probe once the build finished (see ``spillable_joins``); only the
    #: listed nodes are spilled and reloaded.
    joins: list
    #: bytes actually released once the spill lands.
    spilled: int = 0
    spill_done: bool = False
    #: the preemptor resolved (finished or shed) before the spill
    #: landed; the spill process chains straight into the resume.
    resume_requested: bool = False


class MemoryPreemptor:
    """Suspends, spills and later resumes victims of memory-blocked heads.

    ``running`` is the live ``{query id: request}`` dict (read only);
    ``poke()`` wakes the admission loop.
    """

    def __init__(self, env, admission, substrate, metrics, logger,
                 running: dict, poke: Callable):
        self.env = env
        self.admission = admission
        self.substrate = substrate
        self.metrics = metrics
        self.logger = logger
        self.running = running
        self._poke = poke

    def handle_memory_blocked(self, request) -> bool:
        """A head query is blocked on the memory gate alone: intervene.

        Tries to suspend the best lower-priority victim's hash build
        (spilling its reserved bytes back to the node pools).  Returns
        True when the caller must *shed* the request instead — no
        eligible victim and the policy says a memory-starved query
        should fail fast rather than rot in the queue.
        """
        if request.preempting:
            return False  # a spill is already in flight for this query
        policy = self.admission.policy
        if request.shed_at is None and not policy.preemption_shed:
            # A victim's resume is keyed to this request's resolution
            # (admission-then-completion, or a shed).  Without a shed
            # deadline or the shed fallback an insufficient spill could
            # freeze the victim forever — refuse to preempt and let the
            # request wait like any deferred query.
            return False
        if self._start_preemption(request):
            return False
        return policy.preemption_shed

    def _start_preemption(self, request) -> bool:
        """Pick and suspend the best victim for ``request``; True if begun."""
        shortfall = self.admission.memory_shortfall(
            request.plan, request.service_class
        )
        if not shortfall:
            return False  # raced with a release: the gate will pass now
        selected = select_victim(self.running.values(), request, shortfall)
        if selected is None:
            return False
        victim, joins = selected
        joins = greedy_cover(joins, shortfall)
        # Mark synchronously, inside this event cascade: a suspended
        # operator cannot be selected, stolen from, or end.  For a live
        # build that freezes the writer (its probe is still blocked
        # upstream); for a finished build the *probe* is what gets
        # suspended — it is the table's only reader, so nothing touches
        # the spilled bytes while the timed spill is in flight.
        for runtime, _join_id, _per_node in joins:
            runtime.suspended = True
        request.preempting = True
        pre = _Preemption(request=request, victim=victim, joins=joins)
        request.done.callbacks.append(
            lambda _event, p=pre: self._on_preemptor_done(p)
        )
        self.env.process(
            self._spill_proc(pre), name=f"spill:q{victim.query_id}"
        )
        return True

    def _spill_proc(self, pre: _Preemption):
        victim = pre.victim
        context = victim.context
        yield self.env.timeout(spill_seconds(context, _join_bytes(pre.joins)))
        released = 0
        for _runtime, join_id, per_node in pre.joins:
            for node_id in per_node:
                released += context.nodes[node_id].store.spill_join(join_id)
        pre.spilled = released
        pre.spill_done = True
        context.metrics.memory_preemptions += 1
        context.metrics.spill_bytes += released
        self.metrics.memory_preemptions += 1
        self.metrics.spill_bytes += released
        if self.logger.enabled:
            self.logger.log(QueryPreempted(
                time=self.env.now, query_id=victim.query_id,
                for_query_id=pre.request.query_id, spilled_bytes=released,
            ))
        pre.request.preempting = False
        # The freed bytes are now observable: re-evaluate admission.
        self.substrate.notify_memory_released()
        self._poke()
        if pre.resume_requested:
            self.env.process(
                self._resume_proc(pre), name=f"resume:q{victim.query_id}"
            )

    def _on_preemptor_done(self, pre: _Preemption) -> None:
        """The preemptor resolved (finished or shed): give the memory back."""
        pre.resume_requested = True
        if pre.spill_done:
            self.env.process(
                self._resume_proc(pre),
                name=f"resume:q{pre.victim.query_id}",
            )

    def _resume_proc(self, pre: _Preemption):
        victim = pre.victim
        context = victim.context
        if context.done:
            return  # defensive: a suspended build cannot normally finish
        yield self.env.timeout(reload_seconds(context, pre.spilled))
        reloaded = 0
        for _runtime, join_id, per_node in pre.joins:
            for node_id in per_node:
                reloaded += context.nodes[node_id].store.unspill_join(join_id)
        for runtime, _join_id, _per_node in pre.joins:
            runtime.suspended = False
        if self.logger.enabled:
            self.logger.log(QueryResumed(
                time=self.env.now, query_id=victim.query_id,
                reloaded_bytes=reloaded,
            ))
        # The end condition may have ripened while the operator was
        # frozen (its producers finishing), and its threads may all be
        # parked.
        for runtime, _join_id, _per_node in pre.joins:
            context.maybe_end(runtime)
        for node in context.nodes:
            node.wake_all()
