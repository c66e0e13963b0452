"""Structured run traces: per-event logging, and replayable workloads.

Two halves, mirroring the record/replay split of
``ray-scheduler-prototype``'s ``statslogging.py`` + ``replaytrace.py``:

* **Recording** — a :class:`RunLogger` receives one typed event per
  workload-lifecycle transition (submitted / admitted / started / shed /
  finished), per steal round, and per cross-node transfer.  The
  coordinator, admission loop, broker and engine scheduler all log
  through the substrate's logger, so a single sink sees the whole run.
  :class:`NoopLogger` (the default) keeps the hot path to one attribute
  check — it, the sink interface and the two steal events are the
  engine's (:mod:`repro.engine.runlog`), registered here;
  :class:`JsonLinesLogger` writes one JSON object per line,
  gzip-compressed when the path ends in ``.gz``.
* **Replay** — a :class:`Trace` is the workload-defining subset of a
  recorded event stream: for each query, its exact arrival instant, plan
  index, strategy, service class and per-query engine seed.  The driver
  re-submits that schedule through
  :meth:`~repro.serving.driver.WorkloadDriver`, producing byte-identical
  ``WorkloadMetrics.summary()`` output — the round-trip property the
  regression suite enforces.  Replay fidelity is exactly why the driver's
  per-query derivations must be pure in ``(seed, index)``.

Every event is a frozen dataclass with a ``kind`` registry, so the
JSON-lines format round-trips losslessly: ``decode_event(encode_event(e))
== e`` for every event type (property-tested).
"""

from __future__ import annotations

import gzip
import json
from dataclasses import asdict, dataclass, fields
from typing import IO, Iterable, List, Optional

from ..engine.runlog import (NOOP_LOGGER, NoopLogger, RunLogger, StealRound,
                             StealTransfer)
from .spec import ServiceClass

__all__ = [
    "RunStarted", "QuerySubmitted", "QueryAdmitted", "QueryPlaced",
    "QueryStarted",
    "QueryFinished", "QueryShedEvent", "QueryPreempted", "QueryResumed",
    "StealRound", "StealTransfer",
    "BrokerImbalance", "NodeJoined", "NodeDraining", "NodeLeft",
    "RebalanceCompleted", "encode_event", "decode_event",
    "RunLogger", "NoopLogger", "NOOP_LOGGER", "MemoryLogger",
    "JsonLinesLogger", "read_events", "TraceQuery", "Trace",
]


# -- event types -------------------------------------------------------------

@dataclass(frozen=True)
class RunStarted:
    """Header event: run-level facts replay needs (and provenance)."""

    kind = "run_started"
    time: float
    queries: int
    #: the originating arrival process ("poisson", "bursty", "closed", or
    #: "trace" when the run was itself a replay).  Replay uses it to pick
    #: same-instant event ordering (see ``WorkloadDriver._trace_arrivals``).
    arrival_kind: str
    strategy: str
    seed: int


@dataclass(frozen=True)
class QuerySubmitted:
    """A query arrived: everything needed to re-submit it verbatim."""

    kind = "query_submitted"
    time: float
    query_id: int
    #: index into the driver's plan population (None: submitted directly
    #: to a coordinator, outside any driver — not replayable by index).
    plan_index: Optional[int]
    plan_label: str
    strategy: str
    service_class: Optional[ServiceClass]
    #: the per-query engine seed (routing, trigger skew) the execution ran
    #: with — ``request.params.seed`` at submission time.
    params_seed: int
    #: retry attempt number (0: the original submission; k: the k-th
    #: backoff re-entry of the same logical query).
    attempt: int = 0
    #: True when a retrying client will give up rather than resubmit if
    #: this attempt is shed (bounded retries: the last allowed attempt).
    final_attempt: bool = False


@dataclass(frozen=True)
class QueryAdmitted:
    kind = "query_admitted"
    time: float
    query_id: int
    #: admission-queue wait (``time - arrival_time``).
    queued_for: float


@dataclass(frozen=True)
class QueryPlaced:
    """An admission-time placement policy chose the query's join home.

    Logged once per admission, only when a real (non-``paper``) policy
    is selected; ``bytes_avoided`` is the policy's own estimate of
    redistribution bytes saved relative to the optimizer homes (may be
    negative when the chosen set ships more).
    """

    kind = "query_placed"
    time: float
    query_id: int
    policy: str
    nodes: tuple[int, ...]
    bytes_avoided: int


@dataclass(frozen=True)
class QueryStarted:
    kind = "query_started"
    time: float
    query_id: int
    strategy: str


@dataclass(frozen=True)
class QueryFinished:
    kind = "query_finished"
    time: float
    query_id: int
    plan_label: str
    service_class: str
    latency: float
    queueing_delay: float


@dataclass(frozen=True)
class QueryShedEvent:
    kind = "query_shed"
    time: float
    query_id: int
    service_class: str
    reason: str
    #: retry attempt number of the shed submission (0: first attempt).
    attempt: int = 0


@dataclass(frozen=True)
class QueryPreempted:
    """A running query's hash build was suspended (spilled) for memory.

    Preemptive memory management: ``query_id`` is the victim whose
    build-side hash tables were spilled, ``for_query_id`` the admission
    candidate whose reservation the released bytes serve.
    """

    kind = "query_preempted"
    time: float
    query_id: int
    for_query_id: int
    spilled_bytes: int


@dataclass(frozen=True)
class QueryResumed:
    """A preempted query's spilled hash tables were reloaded."""

    kind = "query_resumed"
    time: float
    query_id: int
    reloaded_bytes: int


@dataclass(frozen=True)
class BrokerImbalance:
    """The cross-query broker found an actionable machine imbalance."""

    kind = "broker_imbalance"
    time: float
    node_id: int
    local_load: int
    peak_load: int


@dataclass(frozen=True)
class NodeJoined:
    """A node finished joining: its partitions arrived, admission sees it."""

    kind = "node_joined"
    time: float
    node_id: int
    #: planned active nodes after the join committed.
    active_nodes: int


@dataclass(frozen=True)
class NodeDraining:
    """A node started draining: planned out, finishing in-flight work."""

    kind = "node_draining"
    time: float
    node_id: int
    #: planned active nodes once this node is excluded.
    active_nodes: int


@dataclass(frozen=True)
class NodeLeft:
    """A drained node left: no in-flight query spans it any more."""

    kind = "node_left"
    time: float
    node_id: int
    active_nodes: int


@dataclass(frozen=True)
class RebalanceCompleted:
    """Partition movement for one membership change finished.

    ``bytes_moved`` is the explicit movement cost (every byte crossed the
    shared interconnect under the rebalance charge tag); ``reason`` names
    the driver ("timeline" or "autoscaler").
    """

    kind = "rebalance"
    time: float
    from_nodes: int
    to_nodes: int
    moves: int
    bytes_moved: int
    duration: float
    reason: str


EVENT_TYPES = {
    cls.kind: cls
    for cls in (RunStarted, QuerySubmitted, QueryAdmitted, QueryPlaced,
                QueryStarted,
                QueryFinished, QueryShedEvent, QueryPreempted, QueryResumed,
                StealRound, StealTransfer, BrokerImbalance, NodeJoined,
                NodeDraining, NodeLeft, RebalanceCompleted)
}


def encode_event(event) -> dict:
    """One event as a plain JSON-serializable dict (``kind`` + fields)."""
    kind = getattr(type(event), "kind", None)
    if kind not in EVENT_TYPES:
        raise TypeError(f"not a trace event: {event!r}")
    payload = {"kind": kind}
    for f in fields(event):
        value = getattr(event, f.name)
        if isinstance(value, ServiceClass):
            value = asdict(value)
        payload[f.name] = value
    return payload


def decode_event(payload: dict):
    """Inverse of :func:`encode_event`; raises on unknown kinds/fields."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    if kind == "query_submitted" and data.get("service_class") is not None:
        data["service_class"] = _construct(ServiceClass, data["service_class"])
    if kind == "query_placed":
        # JSON has no tuples; restore the frozen event's exact shape so
        # decode(encode(e)) == e holds for QueryPlaced too.
        data["nodes"] = tuple(data["nodes"])
    return _construct(cls, data)


def _construct(cls, data: dict):
    """``cls(**data)``, with an unknown key a ValueError that names it."""
    try:
        return cls(**data)
    except TypeError:
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if not unknown:
            raise
        raise ValueError(
            f"unknown {cls.__name__} field {unknown[0]!r}"
        ) from None


# -- sinks -------------------------------------------------------------------

class MemoryLogger(RunLogger):
    """Collects events in a list — tests and in-process trace capture."""

    def __init__(self) -> None:
        self.events: List = []

    def log(self, event) -> None:
        self.events.append(event)


class JsonLinesLogger(RunLogger):
    """One JSON object per line; gzip-compressed iff ``path`` ends in ``.gz``.

    Keys are sorted and floats use ``repr`` round-tripping (the json
    module's default), so an event stream re-encodes byte-identically.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._fh: Optional[IO[str]] = _open_text(self.path, "wt")

    def log(self, event) -> None:
        if self._fh is None:
            raise ValueError(f"logger for {self.path!r} is closed")
        self._fh.write(json.dumps(encode_event(event), sort_keys=True))
        self._fh.write("\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _open_text(path: str, mode: str) -> IO[str]:
    if path.endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def read_events(path: str) -> List:
    """Decode every event of a JSON-lines trace file (gzip by suffix).

    A line that does not decode — bad JSON, an unknown kind, or a field
    the event type does not have (a recording from an older release) —
    is a ValueError naming the file and the line.
    """
    events: List = []
    with _open_text(str(path), "rt") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(decode_event(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
    return events


# -- replayable traces -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TraceQuery:
    """One query of a replayable trace, in submission order."""

    query_id: int
    arrival_time: float
    plan_index: int
    strategy: str
    service_class: Optional[ServiceClass]
    params_seed: int
    #: retry attempt number recorded at submission (replay re-submits it
    #: verbatim so ``retries_exhausted`` sheds reproduce byte-identically).
    attempt: int = 0
    final_attempt: bool = False


@dataclass(frozen=True)
class Trace:
    """The workload-defining subset of a recorded run.

    ``arrival_kind`` preserves how the original arrivals were generated:
    replaying a closed-loop trace needs arrivals ordered *after* the
    same-instant completion cascades that originally triggered them.
    """

    queries: tuple[TraceQuery, ...]
    arrival_kind: str = "poisson"
    strategy: str = "DP"
    seed: int = 0

    @property
    def closed_loop(self) -> bool:
        return self.arrival_kind == "closed"

    @classmethod
    def from_events(cls, events: Iterable) -> "Trace":
        """Extract the replayable trace from a full event stream."""
        header: Optional[RunStarted] = None
        queries: List[TraceQuery] = []
        for event in events:
            if isinstance(event, RunStarted):
                header = event
            elif isinstance(event, QuerySubmitted):
                if event.plan_index is None:
                    raise ValueError(
                        f"query {event.query_id} was submitted without a "
                        "plan index (not via a WorkloadDriver plan "
                        "population); the trace cannot be replayed"
                    )
                queries.append(TraceQuery(
                    query_id=event.query_id,
                    arrival_time=event.time,
                    plan_index=event.plan_index,
                    strategy=event.strategy,
                    service_class=event.service_class,
                    params_seed=event.params_seed,
                    attempt=event.attempt,
                    final_attempt=event.final_attempt,
                ))
        if not queries:
            raise ValueError("trace has no submitted queries")
        return cls(
            queries=tuple(queries),
            arrival_kind=header.arrival_kind if header else "poisson",
            strategy=header.strategy if header else queries[0].strategy,
            seed=header.seed if header else 0,
        )

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace from a recorded JSON-lines event file."""
        return cls.from_events(read_events(path))
