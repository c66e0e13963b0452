"""Discrete-event simulation kernel.

This module replaces the paper's physical 72-processor KSR1 with a
deterministic virtual-time substrate.  The paper itself simulated the
execution of atomic operators on top of a real thread implementation
(Section 5); here both layers run in virtual time, which makes speedup and
load-balancing measurements deterministic and independent of the host
machine (and of the Python GIL).

The kernel is a small, simpy-flavoured engine:

* :class:`Environment` owns the event heap and the virtual clock.
* :class:`Process` wraps a generator; the generator *yields* objects that
  describe what the process waits for:

  - :class:`Timeout` — resume after a fixed virtual delay,
  - :class:`Event` — resume when the event is succeeded by someone else,
  - another :class:`Process` — resume when that process terminates,
  - ``None`` — resume immediately (a cooperative yield point).

* Nested generators compose with plain ``yield from``, which is exactly the
  "suspension by procedure call" mechanism of the paper's execution threads
  (Section 3.1): suspending the current activation and processing another is
  a sub-generator invocation, not an OS context switch.

Events fire in (time, priority, sequence) order, so simultaneous events are
processed deterministically in scheduling order.

An :class:`Environment` supports any number of *root* processes: every
query execution, arrival generator and admission loop of the serving layer
(:mod:`repro.serving`) runs as an independent process inside one shared
environment, so their events interleave on the single (time, priority,
sequence) heap and multi-query runs stay exactly as deterministic as
single-query runs.

:class:`Resource` adds the one synchronization primitive the engine needs
beyond events: a resource with a bounded number of slots, used to model
processors shared by the threads of concurrent queries.  *How* waiting
charges are ordered — and whether a running charge can be preempted — is
delegated to a pluggable :class:`SchedulingDiscipline`:

* :class:`FIFODiscipline` (the default) serves charges strictly
  first-come-first-served, granting every charge analytically from the
  per-slot busy horizons — one completion event per charge, contended
  or not;
* :class:`FairShareDiscipline` implements self-clocked weighted fair
  queueing at charge granularity (non-preemptive): each charge carries a
  :class:`ChargeTag` whose ``weight`` sets its class's share;
* :class:`PriorityPreemptiveDiscipline` serves strictly by ``priority``
  and *preempts* a running lower-priority charge, re-queueing its
  remaining service time (no charge is ever lost).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from functools import partial
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Resource",
    "SimulationError",
    "ChargeTag",
    "DEFAULT_TAG",
    "SchedulingDiscipline",
    "FIFODiscipline",
    "FairShareDiscipline",
    "PriorityPreemptiveDiscipline",
    "make_discipline",
    "discipline_names",
    "NORMAL",
    "HIGH",
    "LOW",
]

#: Event priorities: lower value fires earlier at equal timestamps.
HIGH = 0
NORMAL = 1
LOW = 2


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, running without processes)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    schedules all waiting callbacks at the current virtual time.  Waiting on
    an already-triggered event resumes the waiter immediately, which makes
    "check then wait" races impossible in the single-threaded kernel.
    """

    # ``_cancelled`` is assigned only by :meth:`Environment.discard` (lazy
    # deletion); it is read with ``getattr(..., False)`` so event
    # constructors never pay for initializing it.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_fired",
                 "name", "_cancelled")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._fired = False

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._triggered

    @property
    def fired(self) -> bool:
        """True once the event's callbacks have run (its time has passed)."""
        return self._fired

    @property
    def ok(self) -> bool:
        """False if the event carries an exception (see :meth:`fail`)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` (or the failure exception)."""
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event, resuming all waiters at the current time."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self.env._schedule_event(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event so that waiters see ``exception`` raised."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule_event(self, priority)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units in the future.

    The hottest allocation of the kernel (every charge, disk transfer and
    cooperative yield makes one), so the constructor is inlined flat: no
    ``super().__init__`` chain, and a constant name — the delay is visible
    in :attr:`delay` and ``__repr__``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.name = "timeout"
        self.callbacks = []
        self._ok = True
        self._fired = False
        self.delay = delay
        self._triggered = True
        self._value = value
        env._schedule_at(env.now + delay, self, priority)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The generator's ``return`` value becomes the event value, so a parent can
    ``result = yield child_process``.
    """

    __slots__ = ("generator",)

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        # Kick off the process at the current time (deterministically ordered
        # after whatever is currently executing).
        bootstrap = Event(env, name=f"init:{self.name}")
        bootstrap._triggered = True
        env._schedule_at(env.now, bootstrap, NORMAL)
        bootstrap.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if target is None:
            # Cooperative yield: resume on the next scheduling round.
            target = Timeout(self.env, 0)
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; expected an Event, "
                f"Timeout, Process or None"
            )
        if target._fired:
            # Already fired in a past round: resume immediately.
            immediate = Event(self.env, name=f"resume:{self.name}")
            immediate._triggered = True
            immediate._ok = target._ok
            immediate._value = target._value
            self.env._schedule_at(self.env.now, immediate, NORMAL)
            immediate.callbacks.append(self._resume)
        else:
            target.callbacks.append(self._resume)


class Environment:
    """The virtual-time scheduler.

    All simulation state (clock, event heap) lives here.  Typical use::

        env = Environment()
        env.process(worker(env))
        env.run()
        print(env.now)
    """

    __slots__ = ("_now", "_heap", "_counter", "_deferred", "_dead")

    def __init__(self) -> None:
        self._now: float = 0.0
        #: pending events as (when, priority, sequence, event) on a
        #: binary heap.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        #: same-instant deferred callbacks (see :meth:`defer`).
        self._deferred: list[Callable[[], None]] = []
        #: lazily-cancelled entries still sitting in the heap (see
        #: :meth:`discard`).
        self._dead = 0

    @property
    def now(self) -> float:
        """Current virtual time (seconds by convention in this repo)."""
        return self._now

    # -- scheduling -------------------------------------------------------

    def _schedule_at(self, when: float, event: Event, priority: int) -> None:
        heapq.heappush(self._heap,
                       (when, priority, next(self._counter), event))

    def _schedule_event(self, event: Event, priority: int) -> None:
        self._schedule_at(self._now, event, priority)

    def discard(self, event: Event) -> None:
        """Lazily cancel a scheduled ``event``; eagerly purge when due.

        The event's entry stays in the heap and fires as a no-op (its
        callbacks must already be detached) — O(1) instead of an O(n)
        heap removal.  But a long busy period can accumulate cancelled
        entries faster than they expire (the fair/priority heap leak:
        pathological preemption storms grew the heap unboundedly), so
        once dead entries pass a threshold *and* dominate the live ones,
        they are purged in one linear sweep.  The dead counter is not
        decremented when a cancelled entry fires naturally, so a purge
        can run with fewer dead entries than counted — a cheap no-op
        sweep, never a leak.
        """
        event._cancelled = True
        self._dead += 1
        heap = self._heap
        if self._dead > 64 and self._dead * 2 > len(heap):
            # In place: the run loop holds a reference to this list.
            heap[:] = [entry for entry in heap
                       if not getattr(entry[3], "_cancelled", False)]
            heapq.heapify(heap)
            self._dead = 0

    def defer(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` after every normal-priority event of the
        *current* virtual instant has fired.

        Equivalent to scheduling a :data:`LOW`-priority event at ``now``
        (the ordering the fair-share grant sweep depends on) without the
        heap traffic: the run loop drains the deferral list before it
        pops an event of a later instant — or a same-instant LOW event —
        off the heap.  It is the kernel's cheapest "after this cascade"
        hook, used once per completion instant by the fair discipline.
        """
        self._deferred.append(callback)

    # -- public API -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None,
                   priority: int = NORMAL) -> Event:
        """Create an event firing at the *absolute* virtual instant ``when``.

        Unlike ``timeout(when - now)``, the heap stores the exact float
        ``when``, so a precomputed schedule (e.g. sampled arrival times,
        or a replayed trace) fires at bit-identical instants regardless of
        how much virtual time has already elapsed — no relative-delay
        round-off accumulates.  ``priority`` orders the event against
        others of the same instant (a trace replay uses :data:`LOW` so
        arrivals fire after the completion cascades that originally
        preceded them).
        """
        if when < self._now:
            raise SimulationError(
                f"timeout_at({when}) is in the past (now={self._now})"
            )
        event = Event(self, name="timeout_at")
        event._triggered = True
        event._value = value
        self._schedule_at(when, event, priority)
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator, name)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event heap drains (or virtual time passes ``until``).

        Returns the final virtual time.  A non-empty heap at ``until`` leaves
        the remaining events in place so the run can be resumed.

        The unbounded path is the simulation's hottest loop (every event of
        every query flows through it), so it binds the heap and ``heappop``
        to locals and skips the ``until`` comparison entirely.  Deferred
        same-instant callbacks (:meth:`defer`) drain whenever the next
        heap entry would move past them — a later instant, a same-instant
        LOW event, or a drained heap.
        """
        heap = self._heap
        pop = heapq.heappop
        deferred = self._deferred
        if until is None:
            while heap or deferred:
                if deferred and (
                    not heap or heap[0][0] > self._now
                    or (heap[0][0] == self._now and heap[0][1] >= LOW)
                ):
                    pending, self._deferred = deferred, []
                    deferred = self._deferred
                    for callback in pending:
                        callback()
                    continue
                when, _prio, _seq, event = pop(heap)
                self._now = when
                event._fired = True
                callbacks, event.callbacks = event.callbacks, []
                for callback in callbacks:
                    callback(event)
            return self._now
        while heap or deferred:
            if deferred and (
                not heap or heap[0][0] > self._now
                or (heap[0][0] == self._now and heap[0][1] >= LOW)
            ):
                pending, self._deferred = deferred, []
                deferred = self._deferred
                for callback in pending:
                    callback()
                continue
            if heap[0][0] > until:
                self._now = until
                return until
            when, _prio, _seq, event = pop(heap)
            self._now = when
            event._fired = True
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
        return self._now

    def peek(self) -> float:
        """Virtual time of the next scheduled event (``inf`` when drained)."""
        return self._heap[0][0] if self._heap else float("inf")

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
        """An event that succeeds once every event in ``events`` has fired.

        "Fired" means the event's time has passed and its callbacks ran —
        a scheduled-but-future :class:`Timeout` still counts as pending.
        """
        events = list(events)
        gate = self.event(name)
        remaining = len(events)
        if remaining == 0:
            gate.succeed([])
            return gate
        results: list[Any] = [None] * remaining

        def make_cb(index: int) -> Callable[[Event], None]:
            def cb(ev: Event) -> None:
                nonlocal remaining
                results[index] = ev.value
                remaining -= 1
                if remaining == 0 and not gate.triggered:
                    gate.succeed(results)
            return cb

        for i, ev in enumerate(events):
            if ev.fired:
                results[i] = ev.value
                remaining -= 1
            else:
                ev.callbacks.append(make_cb(i))
        if remaining == 0 and not gate.triggered:
            gate.succeed(results)
        return gate

    def any_of(self, events: Iterable[Event], name: str = "any_of") -> Event:
        """An event that succeeds when the first of ``events`` fires."""
        events = list(events)
        gate = self.event(name)
        for ev in events:
            if ev.fired:
                gate.succeed(ev.value)
                return gate

        def cb(ev: Event) -> None:
            if not gate.triggered:
                gate.succeed(ev.value)

        for ev in events:
            ev.callbacks.append(cb)
        return gate


@dataclass(frozen=True, slots=True)
class ChargeTag:
    """Scheduling attributes of one CPU charge.

    ``key`` identifies the fair-share class (the serving layer uses one
    key per query so concurrent queries split a processor by their
    service-class ``weight``); ``priority`` orders charges under the
    preemptive discipline (larger preempts smaller).  The tag carries no
    behaviour — disciplines read it, FIFO ignores it.
    """

    key: str = "default"
    weight: float = 1.0
    priority: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise SimulationError(f"charge weight must be positive: {self.weight}")


#: the tag used when a caller charges a resource without one.
DEFAULT_TAG = ChargeTag()


class SchedulingDiscipline:
    """How a :class:`Resource` orders (and possibly preempts) its charges.

    A discipline instance is stateless and shareable; per-resource
    scheduling state lives in the resource's ``_sched`` slot, installed
    by :meth:`attach`.
    """

    #: registry key ("fifo", "fair", "priority").
    name: str = "?"

    def attach(self, resource: "Resource") -> None:
        """Install per-resource scheduling state (default: none)."""

    def use(self, resource: "Resource", delay: float,
            tag: ChargeTag) -> Generator:
        """Hold one slot for ``delay`` virtual seconds; ``yield from`` this."""
        raise NotImplementedError

    def queued(self, resource: "Resource") -> int:
        """Charges currently waiting for a slot."""
        raise NotImplementedError

    def in_use(self, resource: "Resource") -> int:
        """Slots currently held."""
        return resource.users


class _FIFOCharge(Event):
    """The single completion event of a FIFO charge.

    Born triggered (like a :class:`Timeout`) and scheduled directly at
    the charge's precomputed completion instant; the owner's resume is
    its only callback.  Minimal constructor — one of these is the *only*
    event a FIFO charge ever allocates.
    """

    __slots__ = ()

    def __init__(self) -> None:
        self.name = "fifo-charge"
        self.callbacks = []
        self._ok = True
        self._fired = False
        self._triggered = True
        self._value = None


class _FIFOState:
    """Per-resource state of :class:`FIFODiscipline`."""

    __slots__ = ("horizons", "unfired", "starts")

    def __init__(self, capacity: int) -> None:
        #: per-slot busy horizon: the instant each slot next falls idle
        #: (FCFS = "each arrival takes the earliest-free server").
        self.horizons = [0.0] * capacity
        #: per-slot count of granted charges whose completion has not
        #: fired yet — consulted only on the exact tie ``horizon == now``,
        #: where the slot still counts as occupied iff its last holder's
        #: completion has not fired yet within the current instant.
        self.unfired = [0] * capacity
        #: start instants of the charges still waiting, oldest first
        #: (FCFS starts never decrease); expired heads are dropped before
        #: every push.  Only :attr:`Resource.queued` reads it.
        self.starts: deque[float] = deque()


class FIFODiscipline(SchedulingDiscipline):
    """Strict first-come-first-served service (the paper's model),
    computed analytically: O(1) busy-period math instead of queue events.

    FIFO service order is fixed at arrival, so a charge's start instant
    is computable the moment it is issued: the earliest slot horizon (or
    ``now`` when a slot is idle).  Every charge is granted at issue: one
    precomputed completion event, no acquire/release events, no extra
    generator resumes — the disk's ``busy_until`` closed form, for any
    capacity.

    An uncontended charge is event-for-event identical to charging a
    plain timeout (single-query figure byte-identity rests on that).  A
    contended charge completes when, and waits as long as, an
    event-per-charge FIFO queue would have it; that queue is the
    reference model of ``tests/test_sim_fifo_reference.py``, which pins
    trajectories, per-charge waits and ``busy_time`` against it bit for
    bit.  (Fair and priority cannot precompute: a later arrival legally
    reorders or preempts queued service.)
    """

    name = "fifo"

    def attach(self, resource: "Resource") -> None:
        resource._sched = _FIFOState(resource.capacity)

    def use(self, resource: "Resource", delay: float,
            tag: ChargeTag) -> Generator:
        env = resource.env
        state: _FIFOState = resource._sched
        horizons = state.horizons
        if len(horizons) > 1:
            # C-level min+index beats a Python scan on the small slot
            # lists this models (machines have a handful of CPUs).
            start = min(horizons)
            slot = horizons.index(start)
        else:
            start = horizons[0]
            slot = 0
        now = env._now
        if start > now:
            resource.waits += 1
            resource.wait_time += start - now
            starts = state.starts
            while starts and starts[0] <= now:
                starts.popleft()
            starts.append(start)
        else:
            if start == now:
                # Exact tie: this slot's horizon is *now*, but its
                # holder's completion may not have fired yet within the
                # current instant — the slot then still counts as
                # occupied.  Prefer a genuinely free slot; only when
                # every slot is occupied does the arrival take a
                # zero-length wait.
                unfired = state.unfired
                if unfired[slot]:
                    for j in range(len(horizons)):
                        if horizons[j] <= now and not unfired[j]:
                            slot = j
                            break
                    else:
                        resource.waits += 1
            start = now
        finish = start + delay
        horizons[slot] = finish
        state.unfired[slot] += 1
        done = _FIFOCharge()
        heapq.heappush(env._heap, (finish, NORMAL, next(env._counter), done))
        yield done
        state.unfired[slot] -= 1
        resource.busy_time += delay  # summed in completion order

    def queued(self, resource: "Resource") -> int:
        now = resource.env._now
        return sum(1 for start in resource._sched.starts if start > now)

    def in_use(self, resource: "Resource") -> int:
        now = resource.env._now
        return sum(1 for horizon in resource._sched.horizons
                   if horizon > now)


class _Park(Event):
    """A never-scheduled parking spot for a waiting charge's callbacks.

    The owning process's resume callback lands in :attr:`callbacks` when
    the charge's ``use`` generator yields it; granting the charge
    *migrates* those callbacks onto the service timeout instead of ever
    triggering the park.  Only the fields the process machinery touches
    exist — no environment, no name, no value plumbing.
    """

    __slots__ = ()

    def __init__(self) -> None:
        self.callbacks = []
        self._triggered = False
        self._fired = False


class _FairCharge(Event):
    """One fair charge: park spot and service timeout in a single event.

    While the charge waits, the event is *unscheduled* — only its
    callback list (holding the owner's resume) matters; the grant then
    converts it in place into its own service timeout.  The completion
    callback (:meth:`FairShareDiscipline._on_service_end`, one shared
    bound method per resource) reads the bookkeeping fields off the
    event it receives — one object per charge, no closures, nothing to
    migrate.
    """

    __slots__ = ("resource", "fkey", "delay")

    def __init__(self, env: "Environment", delay: float,
                 resource: "Resource", key: str):
        self.env = env
        self.name = "fair-charge"
        self.callbacks = []
        self._ok = True
        self._fired = False
        self._triggered = False
        self._value = None
        self.resource = resource
        self.fkey = key
        self.delay = delay


class _FairState:
    """Per-resource state of :class:`FairShareDiscipline`."""

    __slots__ = ("vtime", "classes", "heap", "grants_due", "grant_cb",
                 "service_cb")

    def __init__(self) -> None:
        #: virtual time: the largest pass admitted to service.
        self.vtime = 0.0
        #: class key -> [cumulative pass, outstanding charges, idle-at
        #: instant or None] — one dict probe per charge instead of three.
        self.classes: dict[str, list] = {}
        #: waiting charges as (pass, seq, charge, parked_at); the charge
        #: event is unscheduled until the grant converts it (see
        #: :class:`_FairCharge`).
        self.heap: list[tuple[float, int, "_FairCharge", float]] = []
        #: slots freed this instant, granted by one coalesced deferred sweep.
        self.grants_due = 0
        #: the zero-arg sweep closure handed to ``Environment.defer``; it
        #: holds the resource, not this state, so dropping the resource's
        #: ``_sched`` (:meth:`Resource.close`) leaves no cycle behind.
        self.grant_cb = None
        #: shared completion callback (one bound method per resource).
        self.service_cb = None


class FairShareDiscipline(SchedulingDiscipline):
    """Weighted fair sharing (stride scheduling) at charge granularity.

    Every charge of class ``c`` advances the class's cumulative *pass* by
    ``delay / weight_c``; a freed slot always goes to the waiting charge
    with the smallest pass.  A class that stays busy — including the
    engine's back-to-back charge pattern, where a thread's next charge
    arrives at the same virtual instant its previous one completed —
    keeps its cumulative pass, so over any saturated interval the classes
    competing for the slot split it in proportion to their weights.  A
    class that was genuinely idle (a virtual-time gap with no outstanding
    charge) rejoins at the current virtual time instead, so sleeping
    cannot bank an unbounded service credit.

    Service is non-preemptive and starvation-free: a waiting charge's
    pass is fixed, every later charge arrives with a strictly larger
    pass for its own class, and passes advance with the service a class
    receives — so the minimum-pass rule reaches every waiter.

    Hot path: the whole charge lifecycle runs callback-side, costing one
    scheduled event per charge.  A :class:`_FairCharge` is both the park
    spot and the service timeout: it carries its own bookkeeping fields,
    the owner's resume callback rides on it from the start, and a grant
    merely schedules it — so neither parking nor granting allocates or
    migrates anything.
    Freed slots are handed out by a deferred sweep at the *same*
    virtual instant — after every same-instant normal-priority event, so
    a charge stream whose next charge follows back-to-back (the engine's
    dominant pattern, including indirectly through a disk or network
    completion) gets to enqueue before the grant and the slot goes to
    the smallest pass among all same-instant contenders.  The sweep runs
    off :meth:`Environment.defer` — armed at most once per instant
    however many charges complete then, with no heap traffic at all.
    """

    name = "fair"

    def attach(self, resource: "Resource") -> None:
        state = _FairState()
        state.grant_cb = partial(self._sweep, resource)
        state.service_cb = self._on_service_end
        resource._sched = state

    def use(self, resource: "Resource", delay: float,
            tag: ChargeTag) -> Generator:
        env = resource.env
        state: _FairState = resource._sched
        key = tag.key
        ent = state.classes.get(key)
        if ent is None:
            ent = state.classes[key] = [0.0, 0, None]
        start, count, idle_since = ent
        if not count and (idle_since is None or env._now > idle_since) \
                and start < state.vtime:
            # New or genuinely idle class: rejoin at the virtual time.
            start = state.vtime
        finish = start + delay / tag.weight
        ent[0] = finish
        ent[1] = count + 1
        charge = _FairCharge(env, delay, resource, key)
        charge.callbacks.append(state.service_cb)
        if resource.users < resource.capacity and not state.heap:
            resource.users += 1
            if finish > state.vtime:
                state.vtime = finish
            # Start serving now: the charge becomes its service timeout
            # and the caller resumes straight off it (inlined
            # ``_schedule_at`` — this is the per-charge hot path).
            charge._triggered = True
            heapq.heappush(env._heap, (env._now + delay, NORMAL,
                                       next(env._counter), charge))
        else:
            heapq.heappush(state.heap,
                           (finish, next(resource._seq), charge, env._now))
            resource.waits += 1
        yield charge

    def _on_service_end(self, charge: "_FairCharge") -> None:
        """Bank the service and arm the grant sweep (shared callback).

        Runs *before* the charge owner's resume callback (appended to the
        same timeout after this one), so the owner observes fully updated
        accounting — and the deferred sweep still runs after every
        same-instant resume.
        """
        resource = charge.resource
        state: _FairState = resource._sched
        env = resource.env
        resource.busy_time += charge.delay
        ent = state.classes[charge.fkey]
        remaining = ent[1] - 1
        ent[1] = remaining
        if remaining == 0:
            ent[2] = env._now
        # Defer the grant to the sweep at the *same* virtual instant
        # (``users`` stays counted until it runs); arm it only once
        # however many charges complete now.
        state.grants_due += 1
        if state.grants_due == 1:
            env._deferred.append(state.grant_cb)

    def _sweep(self, resource: "Resource") -> None:
        """Grant every slot freed this instant, smallest pass first."""
        state: _FairState = resource._sched
        due, state.grants_due = state.grants_due, 0
        env = resource.env
        heap = state.heap
        if due == 1 and heap:
            # The dominant case — one completion this instant, waiters
            # present — skips the loop machinery entirely.
            finish, _seq, charge, parked_at = heapq.heappop(heap)
            if finish > state.vtime:
                state.vtime = finish
            resource.wait_time += env._now - parked_at
            charge._triggered = True
            heapq.heappush(env._heap, (env._now + charge.delay, NORMAL,
                                       next(env._counter), charge))
            return
        for _ in range(due):
            if heap:
                # Hand the slot to the smallest pass; ``users`` is
                # unchanged (ownership transfer).
                finish, _seq, charge, parked_at = heapq.heappop(heap)
                if finish > state.vtime:
                    state.vtime = finish
                resource.wait_time += env._now - parked_at
                # Convert the parked charge into its service timeout in
                # place: the owner's resume already rides on it.
                charge._triggered = True
                heapq.heappush(env._heap,
                               (env._now + charge.delay, NORMAL,
                                next(env._counter), charge))
            else:
                resource.users -= 1
        if resource.users == 0:
            # Fully idle: reset the virtual clock so a past busy period
            # cannot penalize classes in the next one.
            state.vtime = 0.0
            state.classes.clear()

    def queued(self, resource: "Resource") -> int:
        return len(resource._sched.heap)


class _PrioCharge:
    """One priority charge's lifecycle state (running *or* waiting)."""

    __slots__ = ("priority", "seq", "remaining", "segment", "cur_seg",
                 "pending_cbs", "seg_started", "parked_at", "waited")

    def __init__(self, priority: int, seq: int, remaining: float):
        self.priority = priority
        self.seq = seq
        self.remaining = remaining
        #: service-segment token: bumped on preemption, so the cancelled
        #: segment's timeout lazily no-ops when it eventually fires.
        self.segment = 0
        #: the in-flight :class:`_PrioSegment` (None while waiting).  The
        #: owner's resume callbacks ride on it; preemption strips them off
        #: the dead timeout (which then fires as a no-op) and the next
        #: segment re-carries them, firing the owner exactly once, at
        #: final completion.
        self.cur_seg: Optional["_PrioSegment"] = None
        #: resume callbacks awaiting the next segment (the park event's
        #: callback list while waiting, or the strip of a preempted one).
        self.pending_cbs: Optional[list] = None
        self.seg_started = 0.0
        self.parked_at = 0.0
        self.waited = False


class _PrioSegment(Timeout):
    """One service segment of a priority charge (see :class:`_PrioCharge`).

    The constructor inlines ``Timeout.__init__`` — one segment is
    allocated per charge (plus one per preemption), the discipline's
    hottest allocation.
    """

    __slots__ = ("resource", "charge", "token")

    def __init__(self, env: "Environment", delay: float,
                 resource: "Resource", charge: _PrioCharge, token: int):
        self.resource = resource
        self.charge = charge
        self.token = token
        self.env = env
        self.name = "timeout"
        self.callbacks = []
        self._ok = True
        self._fired = False
        self.delay = delay
        self._triggered = True
        self._value = None
        env._schedule_at(env._now + delay, self, NORMAL)


class _PrioState:
    """Per-resource state of :class:`PriorityPreemptiveDiscipline`."""

    __slots__ = ("waiting", "running", "segment_cb")

    def __init__(self) -> None:
        #: waiting charges as (-priority, seq, charge).
        self.waiting: list[tuple[int, int, _PrioCharge]] = []
        self.running: list[_PrioCharge] = []
        #: shared segment-completion callback (one bound method).
        self.segment_cb = None


class PriorityPreemptiveDiscipline(SchedulingDiscipline):
    """Strict priorities with preemption at any point of a charge.

    A charge that finds every slot held by lower-priority work preempts
    the lowest-priority (most recently started) running charge: the
    victim's elapsed service is banked, its remaining service time is
    re-queued with its original arrival sequence, and the slot transfers
    immediately.  Waiters are granted highest-priority-first (FIFO within
    a priority level), so a preempted charge resumes ahead of later
    arrivals of its own level.  Conservation: however often a charge is
    preempted, its banked service always sums to its demand — a charge
    completes only once ``remaining`` hits zero.

    Hot path: like the fair discipline, the lifecycle runs callback-side
    (one generator resume per charge, no acquire/preempt events, no
    ``any_of`` gate).  A service segment is a :class:`_PrioSegment`
    timeout carrying the charge; the owner's resume callback rides on
    the segment (or waits, unscheduled, on a park event whose callbacks
    the first segment absorbs).  Preempting a segment bumps the charge's
    segment token and strips the callbacks instead of cancelling the
    heap entry (O(n) removal) — the dead timeout fires later as a
    lazy-deleted no-op.  Each cancellation is also reported to
    :meth:`Environment.discard`, whose threshold purge bounds the heap
    when a pathological preemption storm cancels entries faster than
    they expire (long victims preempted repeatedly used to leak one
    far-future entry per preemption for the whole busy period).
    """

    name = "priority"

    def attach(self, resource: "Resource") -> None:
        state = _PrioState()
        state.segment_cb = self._on_segment_end
        resource._sched = state

    def use(self, resource: "Resource", delay: float,
            tag: ChargeTag) -> Generator:
        state: _PrioState = resource._sched
        charge = _PrioCharge(tag.priority, next(resource._seq), delay)
        if resource.users < resource.capacity:
            resource.users += 1
            self._start_segment(resource, state, charge)
        else:
            self._place(resource, state, charge)
        if charge.cur_seg is not None:
            # Serving already: resume straight off the segment timeout
            # (later segments inherit the callback if it gets preempted).
            yield charge.cur_seg
        else:
            # Parked: the park event is never scheduled — it only holds
            # the resume callback until a grant migrates it to a segment.
            park = _Park()
            charge.pending_cbs = park.callbacks
            yield park

    # -- slot placement (free slot already ruled out) ----------------------

    def _place(self, resource: "Resource", state: _PrioState,
               charge: _PrioCharge) -> None:
        """Preempt the weakest running charge, or park: the arrival *and*
        re-queue path, so a displaced victim may itself displace a still
        weaker charge when the resource has several slots."""
        victim: Optional[_PrioCharge] = None
        for entry in state.running:
            if entry.priority >= charge.priority:
                continue
            if victim is None or (entry.priority, -entry.seq) < (
                    victim.priority, -victim.seq):
                victim = entry
        if victim is not None:
            # Bank the victim's service; its slot transfers to ``charge``
            # (``users`` unchanged).  The victim re-queues with its
            # original arrival sequence — or completes, if the preemption
            # landed exactly at its completion instant.
            env = resource.env
            served = env._now - victim.seg_started
            resource.busy_time += served
            victim.remaining -= served
            victim.segment += 1  # lazy-cancel the in-flight timeout
            seg = victim.cur_seg
            victim.pending_cbs = seg.callbacks[1:]  # strip [segment_cb, ...]
            seg.callbacks = []
            # The dead entry fires as a no-op — but count it, so a
            # preemption storm that cancels faster than entries expire
            # triggers the eager purge instead of growing the heap.
            env.discard(seg)
            victim.cur_seg = None
            state.running.remove(victim)
            resource.preemptions += 1
            self._start_segment(resource, state, charge)
            if victim.remaining > 1e-15:
                # The victim re-places itself: it may in turn displace a
                # still weaker charge from another slot, or park.
                self._place(resource, state, victim)
            else:
                # Preempted exactly at completion: fire the owner's
                # resume now (nothing to release — the slot transferred).
                wake = Event(env)
                wake._triggered = True
                wake.callbacks = victim.pending_cbs
                env._schedule_at(env._now, wake, NORMAL)
        else:
            heapq.heappush(state.waiting,
                           (-charge.priority, charge.seq, charge))
            if not charge.waited:
                resource.waits += 1
                charge.waited = True
            charge.parked_at = resource.env._now

    # -- service segments ---------------------------------------------------

    def _start_segment(self, resource: "Resource", state: _PrioState,
                       charge: _PrioCharge) -> None:
        env = resource.env
        state.running.append(charge)
        charge.seg_started = env._now
        seg = _PrioSegment(env, charge.remaining, resource, charge,
                           charge.segment)
        seg.callbacks.append(state.segment_cb)
        pending = charge.pending_cbs
        if pending:
            # Carry the owner's resume callback(s) over from the park
            # event or the previous (preempted) segment.
            seg.callbacks.extend(pending)
            charge.pending_cbs = None
        charge.cur_seg = seg

    def _on_segment_end(self, seg: "_PrioSegment") -> None:
        charge = seg.charge
        if charge.segment != seg.token:
            return  # preempted: this timeout was lazily cancelled
        resource = seg.resource
        state: _PrioState = resource._sched
        resource.busy_time += charge.remaining
        charge.remaining = 0.0
        charge.cur_seg = None
        state.running.remove(charge)
        # The owner's resume callback follows this one on the same
        # timeout, so the grant below lands before the owner continues —
        # exactly the old completion order.
        if state.waiting:
            _negp, _wseq, granted = heapq.heappop(state.waiting)
            resource.wait_time += resource.env._now - granted.parked_at
            self._start_segment(resource, state, granted)
        else:
            resource.users -= 1

    def queued(self, resource: "Resource") -> int:
        return len(resource._sched.waiting)


#: shared stateless singletons, one per discipline.
_DISCIPLINES: dict[str, SchedulingDiscipline] = {
    cls.name: cls() for cls in (
        FIFODiscipline, FairShareDiscipline, PriorityPreemptiveDiscipline,
    )
}


def discipline_names() -> list[str]:
    """Registered discipline names."""
    return sorted(_DISCIPLINES)


def make_discipline(name: str) -> SchedulingDiscipline:
    """The shared discipline instance for (case-insensitive) ``name``."""
    try:
        return _DISCIPLINES[name.lower()]
    except KeyError:
        raise SimulationError(
            f"unknown scheduling discipline {name!r}; known: "
            f"{discipline_names()}"
        ) from None


class Resource:
    """A resource with ``capacity`` slots and a pluggable discipline.

    Processes hold a slot for the duration of a :meth:`use` block.  The
    order in which waiting charges are served — and whether a running
    charge can be preempted — is the :class:`SchedulingDiscipline`'s
    decision; the default :class:`FIFODiscipline` serves strictly
    first-come-first-served, so later arrivals can never barge past an
    older waiter even when they run at the same virtual timestamp.

    The uncontended path schedules no extra events: ``yield from
    resource.use(d)`` with a free slot is event-for-event identical to
    ``yield env.timeout(d)``.  Single-owner executions (one thread per
    processor, as in a lone query) therefore behave bit-identically to a
    plain timeout, while concurrent queries sharing the processor queue
    behind each other — the contention the serving layer measures.

    Slots are managed inside :meth:`use` only; ``users`` counts the held
    slots of the fair and priority disciplines (FIFO keeps per-slot
    busy horizons instead — read :attr:`in_use`, which covers both).
    """

    __slots__ = ("env", "capacity", "name", "users", "discipline", "_sched",
                 "_seq", "_use", "busy_time", "wait_time", "waits",
                 "preemptions")

    def __init__(self, env: Environment, capacity: int = 1, name: str = "",
                 discipline: Optional[SchedulingDiscipline] = None):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users = 0
        self.discipline = discipline if discipline is not None \
            else _DISCIPLINES["fifo"]
        self._sched: Any = None
        self._seq = itertools.count()
        # --- statistics -------------------------------------------------
        self.busy_time = 0.0
        self.wait_time = 0.0
        self.waits = 0
        self.preemptions = 0
        self.discipline.attach(self)
        # Cached bound dispatch: ``use`` is the hottest call of the serving
        # layer (every CPU charge of every thread), so skip the double
        # attribute lookup per charge.
        self._use = self.discipline.use

    @property
    def queued(self) -> int:
        """Processes currently waiting for a slot."""
        return self.discipline.queued(self)

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self.discipline.in_use(self)

    def close(self) -> None:
        """Drop the discipline's per-resource state, and with it the
        callbacks that point back here (the resource is retired)."""
        self._sched = None

    def use(self, delay: float, tag: Optional[ChargeTag] = None) -> Generator:
        """Hold one slot for ``delay`` virtual seconds.

        ``tag`` carries the charge's service-class attributes (weight,
        priority); ``None`` means :data:`DEFAULT_TAG`.  FIFO ignores it.
        """
        return self._use(self, delay, DEFAULT_TAG if tag is None else tag)
