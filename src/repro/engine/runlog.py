"""Run-event sink interface, and the events the engine itself emits.

Every machine has a logger (``Substrate.logger``): the steal protocol
logs its rounds and transfers through it, and so do the serving layer's
coordinator, broker and cluster runtime, so one sink sees the whole run.
:mod:`repro.serving.trace` registers the two steal events in its ``kind``
table and owns the concrete sinks and the replay format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["RunLogger", "NoopLogger", "NOOP_LOGGER", "StealRound",
           "StealTransfer"]


class RunLogger:
    """Event sink interface.  ``enabled`` gates the hot-path call sites:
    producers check it before *building* an event, so the default
    :class:`NoopLogger` costs one attribute read per site."""

    enabled = True

    def log(self, event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NoopLogger(RunLogger):
    """The default sink: drops everything, advertises ``enabled=False``."""

    enabled = False

    def log(self, event) -> None:
        pass


#: shared default instance (stateless, safe to share).
NOOP_LOGGER = NoopLogger()


@dataclass(frozen=True)
class StealRound:
    """A node started a Section 4 steal round (local- or broker-initiated)."""

    kind = "steal_round"
    time: float
    query_id: int
    node_id: int
    #: operator scope of the round (None: global scope).
    scope: Optional[int]
    cross: bool


@dataclass(frozen=True)
class StealTransfer:
    """Stolen activations (and possibly a hash-table copy) were installed."""

    kind = "steal_transfer"
    time: float
    query_id: int
    src_node: int
    dst_node: int
    activations: int
    hash_bytes: int
