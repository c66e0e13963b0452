"""The admission queue: one FIFO per service class.

Admission is FIFO *within* a service class and strict priority *across*
classes, so only a class's head-of-line request can be admitted or shed
by the memory gate.  A request's shed deadline is its arrival instant
plus per-class constants (:meth:`AdmissionController.shed_deadline`), so
deadlines are monotone in arrival order within a class and only a head
can expire first.  Every question the admission loop asks — who is next,
has anything expired, when must the shed timer fire — therefore reads
the heads alone, O(classes) however deep the backlog.  The invariant
needs one name to mean one class; ``MultiQueryCoordinator.submit``
enforces that.

No simulation environment in here: ``tests/test_serving_pending.py``
drives the structure with hand-built requests against the shared-deque
sweep it replaced.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..engine.context import ExecutionContext
    from ..engine.metrics import QueryCompletion
    from ..optimizer.plan import ParallelExecutionPlan
    from ..sim.core import Event
    from .spec import ServiceClass

__all__ = ["QueryRequest", "PendingQueues"]


class QueryRequest:
    """One submitted query: identity, timestamps, completion event."""

    __slots__ = ("query_id", "plan", "base_plan", "strategy", "seed",
                 "service_class",
                 "arrival_time", "seq", "start_time", "done", "completion",
                 "context", "deferred", "shed", "shed_at",
                 "shed_reason", "plan_index", "planned_size", "attempt",
                 "final_attempt", "preempting", "placement")

    def __init__(self, query_id: int, plan: ParallelExecutionPlan,
                 strategy: str, seed: int,
                 service_class: ServiceClass,
                 arrival_time: float, seq: int, done: Event):
        self.query_id = query_id
        self.plan = plan
        #: the un-placed plan (as submitted, or the bank's re-resolution)
        #: the placement policy re-derives ``plan`` from on every head
        #: evaluation — placement never compounds on its own output.
        self.base_plan = plan
        self.strategy = strategy
        #: the query's own randomness (its skew permutations); it runs
        #: under the machine's params.
        self.seed = seed
        #: scheduling/admission contract (weight, priority, SLO, gates).
        self.service_class = service_class
        self.arrival_time = arrival_time
        #: submission order, the FIFO tiebreak within a service class.
        self.seq = seq
        self.start_time: Optional[float] = None
        #: fires when the query finishes (with its QueryCompletion) or is
        #: shed (with its ShedRecord) — closed-loop clients wait on it.
        self.done = done
        self.completion: Optional[QueryCompletion] = None
        self.context: Optional[ExecutionContext] = None
        #: set once the query has waited on a closed admission gate
        #: (deferral is counted per query, not per re-evaluation).
        self.deferred = False
        #: set when overload handling rejected the query before starting.
        self.shed = False
        #: precomputed shed deadline and reason (both pure functions of
        #: arrival time, class and policy) — computed once at submission
        #: so expiry checks compare floats instead of re-deriving
        #: deadlines per wake.
        self.shed_at: Optional[float] = None
        self.shed_reason = "queue_timeout"
        #: index into the driver's plan population (None: direct submit).
        #: On an elastic cluster this is what lets admission re-resolve
        #: the plan against the membership at *start* time.
        self.plan_index: Optional[int] = None
        #: node count the current ``plan`` was compiled for.
        self.planned_size: int = 0
        #: which submission of the logical query this is (0 = the
        #: original arrival; k = the k-th retry of a backoff client).
        self.attempt: int = 0
        #: True when a retry client has no attempts left after this one —
        #: a shed then records ``retries_exhausted`` instead of the
        #: mechanical queue reason, making terminal give-ups countable.
        self.final_attempt: bool = False
        #: a memory preemption (victim spill) is in flight on this
        #: query's behalf; the admission loop must not trigger another
        #: until it lands and the freed bytes are observable.
        self.preempting: bool = False
        #: the placement decision behind the current ``plan`` (None when
        #: no policy is active); finalized at admission.
        self.placement = None

    @property
    def queueing_delay(self) -> float:
        """Pre-admission wait of a started query (arrival -> start)."""
        return self.start_time - self.arrival_time


class PendingQueues:
    """Queries awaiting admission, one FIFO per service-class name."""

    def __init__(self) -> None:
        self._queues: dict[str, deque[QueryRequest]] = defaultdict(deque)

    def __len__(self) -> int:
        return sum(map(len, self._queues.values()))

    def push(self, request: QueryRequest) -> None:
        """Append ``request`` behind its class's earlier arrivals."""
        self._queues[request.service_class.name].append(request)

    def heads(self) -> list[QueryRequest]:
        """The head-of-line request of every class with one waiting."""
        return [queue[0] for queue in self._queues.values() if queue]

    def pop_head(self, request: QueryRequest) -> None:
        """Remove ``request``, which must be its class's head of line."""
        queue = self._queues.get(request.service_class.name)
        if not queue or queue[0] is not request:
            raise ValueError(
                f"query {request.query_id} is not the head of class "
                f"{request.service_class.name!r}"
            )
        queue.popleft()

    def pop_expired(self, now: float) -> list[QueryRequest]:
        """Remove and return every request whose shed deadline has passed.

        Each queue is popped from the head until the first survivor; the
        result is merged back into arrival order (``seq``), the order one
        shared queue would shed classes that expire in the same sweep.
        """
        expired: list[QueryRequest] = []
        for queue in self._queues.values():
            while queue:
                deadline = queue[0].shed_at
                if deadline is None or now < deadline - 1e-12:
                    break
                expired.append(queue.popleft())
        expired.sort(key=lambda request: request.seq)
        return expired

    def earliest_deadline(self) -> Optional[float]:
        """The soonest pending shed deadline (always at a head), or None."""
        return min((request.shed_at for request in self.heads()
                    if request.shed_at is not None), default=None)
