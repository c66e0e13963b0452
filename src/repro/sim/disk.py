"""Disk service model with asynchronous I/O, a small I/O cache, and a
pluggable scheduling discipline.

Reproduces the paper's simulated-disk parameters (Section 5.1.1):

=============================  =================
Nb. of disks                   1 per processor
Disk latency                   17 ms
Seek time                      5 ms
Transfer rate                  6 MB/s
CPU cost for async I/O init    5000 instr
I/O cache size                 8 pages
=============================  =================

The model:

* each disk is one arm whose requests are ordered by a
  :class:`~repro.sim.core.SchedulingDiscipline` — strict FIFO by default
  (the paper's model, bit-identical to the pre-discipline disk), or the
  same ``"fair"`` / ``"priority"`` disciplines the processors run, so a
  service class's :class:`~repro.sim.core.ChargeTag` is honored at the
  disk exactly as it is at the CPU;
* a request for ``n`` pages costs ``latency + seek + n * page/transfer``;
* the I/O cache prefetches up to ``io_cache_pages`` pages ahead on a
  sequential stream, so a reader that processes pages slower than the disk
  delivers them pays the disk price only once (latency hiding — exactly the
  reason the paper multiplexes I/O with data processing);
* issuing an asynchronous read costs the *calling thread*
  ``async_init_instructions`` of CPU, charged by the caller (the engine's
  execution threads), not here.

Under the default FIFO discipline the disk keeps the original analytic
busy-period model (a closed-form ``busy_until`` horizon, one timeout per
request): it is event-for-event identical to the seed behaviour, which the
figure-output byte-identity regressions rest on, and request tags are
inert.  Under ``"fair"`` or ``"priority"`` each request instead holds the
arm — a capacity-1 :class:`~repro.sim.core.Resource` — for its service
time, so waiting requests are reordered (and running ones preempted) by
class weight or priority.  A request continuing the stream the arm most
recently served still skips the latency + seek (the cache's read-ahead);
a stream that lost the arm in between — including to a preempting
higher-priority read — pays the re-seek, and the overlapped prefetch
shortcut of the FIFO cache is not modelled, because a reordered arm has
no stable notion of "the request right behind me".

Queueing is observable either way: :attr:`Disk.wait_time` accumulates the
time requests spent queued behind other requests, and
:meth:`Disk.take_wait_time` splits it by :class:`ChargeTag` key, which the
serving layer reads back into per-class disk queueing-delay metrics.

The engine drives disks through :class:`AsyncReadHandle`: start a read,
keep executing other activations, test completion, and finally consume the
pages — the ``IO_InitAsync``/``IO_Read`` pattern of Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (ChargeTag, DEFAULT_TAG, Environment, Event, Resource,
                   SchedulingDiscipline)

__all__ = ["DiskParams", "Disk", "AsyncReadHandle"]


@dataclass(frozen=True)
class DiskParams:
    """Disk timing parameters (defaults from the paper, Section 5.1.1)."""

    latency: float = 17e-3
    seek_time: float = 5e-3
    transfer_rate: float = 6 * 1024 * 1024
    async_init_instructions: int = 5000
    io_cache_pages: int = 8
    page_size: int = 8 * 1024

    def service_time(self, pages: int) -> float:
        """Wall time for one synchronous request of ``pages`` pages."""
        if pages <= 0:
            raise ValueError(f"pages must be positive, got {pages}")
        return self.latency + self.seek_time + pages * self.page_size / self.transfer_rate

    def transfer_time(self, pages: int) -> float:
        """Pure transfer time of ``pages`` pages (no latency, no seek)."""
        if pages <= 0:
            raise ValueError(f"pages must be positive, got {pages}")
        return pages * self.page_size / self.transfer_rate


class AsyncReadHandle:
    """In-flight asynchronous read: poll with :attr:`done`, wait on :attr:`event`.

    Mirrors the paper's ``IoRequest`` returned by ``IO_InitAsync``.  The
    engine's threads poll ``done`` and, when false, go process another
    activation instead of blocking (Section 4, "Activation Execution").
    """

    __slots__ = ("event", "pages", "issued_at")

    def __init__(self, event: Event, pages: int, issued_at: float):
        self.event = event
        self.pages = pages
        self.issued_at = issued_at

    @property
    def done(self) -> bool:
        """True once the pages have arrived in memory."""
        return self.event.fired


class Disk:
    """One disk arm with discipline-ordered queueing and prefetch batching.

    Under FIFO (``discipline=None`` or the FIFO discipline) the disk is
    modelled as a server whose busy period extends as requests arrive: a
    request issued while the disk is busy starts when the previous ones
    finish.  This captures the contention that makes the *number* of
    disks (one per processor) matter in the speedup experiments.  Under
    ``"fair"`` / ``"priority"`` the same arm is a scheduled resource: the
    discipline decides which waiting request is served next (and whether
    a running transfer is preempted), using each request's
    :class:`~repro.sim.core.ChargeTag`.
    """

    def __init__(self, env: Environment, params: DiskParams, name: str = "disk",
                 discipline: Optional[SchedulingDiscipline] = None):
        self.env = env
        self.params = params
        self.name = name
        #: the scheduled arm; None means the analytic FIFO busy-period
        #: model (the seed behaviour, bit-identical single-query runs).
        self._arm: Optional[Resource] = None
        if discipline is not None and discipline.name != "fifo":
            self._arm = Resource(env, capacity=1, name=f"{name}:arm",
                                 discipline=discipline)
        self._busy_until = 0.0
        self._last_stream: object = None
        #: when the last request's data (plus the cache's read-ahead)
        #: became available (FIFO path only).  Only a request continuing
        #: ``_last_stream`` reads it, so no other stream's is kept.
        self._last_ready = 0.0
        # --- statistics -------------------------------------------------
        self.requests = 0
        self.pages_read = 0
        self.busy_time = 0.0
        #: time requests spent queued behind other requests' service.
        self.wait_time = 0.0
        #: ChargeTag key -> queued time of that class's requests.
        self.wait_by_key: dict[str, float] = {}

    @property
    def preemptions(self) -> int:
        """Transfers preempted mid-service (0 under FIFO/fair)."""
        return 0 if self._arm is None else self._arm.preemptions

    def close(self) -> None:
        """Retire the scheduled arm (see :meth:`Resource.close`)."""
        if self._arm is not None:
            self._arm.close()

    def take_wait_time(self, key: str) -> float:
        """Queued time accumulated by requests tagged with ``key``, which
        is forgotten: a finished query takes its total with it, so a
        long-lived disk holds keys of live queries only."""
        return self.wait_by_key.pop(key, 0.0)

    def _record_wait(self, key: str, waited: float) -> None:
        if waited > 1e-15:
            self.wait_time += waited
            self.wait_by_key[key] = self.wait_by_key.get(key, 0.0) + waited

    def read_async(self, pages: int, stream: object = None,
                   tag: Optional[ChargeTag] = None) -> AsyncReadHandle:
        """Issue an asynchronous read of ``pages`` pages.

        Returns immediately with a handle; the handle's event fires when the
        transfer completes.  The CPU cost of *issuing* the request
        (``async_init_instructions``) is charged by the calling thread.

        ``stream`` identifies a sequential read stream.  The paper's
        8-page I/O cache prefetches sequentially ahead of the reader, so a
        request continuing a stream (a) pays no latency/seek and (b) may
        find its pages already read: the cache started fetching them right
        after the previous request on the stream completed, overlapping
        the reader's CPU time.  A stream switch pays the full latency +
        seek and restarts the read-ahead.

        ``tag`` carries the request's service-class attributes.  The FIFO
        arm ignores it (tags are inert, exactly as on CPU charges); the
        fair and priority disciplines order — and may preempt — requests
        by it.  Either way the tag's key attributes the request's queueing
        time in :meth:`take_wait_time`.
        """
        if pages <= 0:
            raise ValueError(f"pages must be positive, got {pages}")
        if self._arm is not None:
            return self._read_scheduled(pages, stream, tag)
        if pages > 0 and self.params.io_cache_pages > 0:
            prefetchable = pages <= self.params.io_cache_pages
        else:
            prefetchable = False
        now = self.env.now
        key = (tag or DEFAULT_TAG).key
        transfer = pages * self.params.page_size / self.params.transfer_rate
        sequential = stream is not None and stream == self._last_stream
        if sequential:
            if prefetchable:
                # The cache began reading these pages when the previous
                # request on the stream finished; they are ready at
                # prev_ready + transfer, possibly already in the past.
                ready = max(self._last_ready + transfer, now)
                finish = ready
            else:
                finish = max(now, self._busy_until) + transfer
                self._record_wait(key, max(0.0, self._busy_until - now))
            self.busy_time += transfer
        else:
            service = self.params.service_time(pages)
            finish = max(now, self._busy_until) + service
            self._record_wait(key, max(0.0, self._busy_until - now))
            self.busy_time += service
        self._last_stream = stream
        self._last_ready = finish
        self._busy_until = max(self._busy_until, finish)
        self.requests += 1
        self.pages_read += pages
        done = self.env.timeout(finish - now, value=pages)
        return AsyncReadHandle(done, pages, now)

    # -- scheduled (non-FIFO) path ------------------------------------------

    def _read_scheduled(self, pages: int, stream: object,
                        tag: Optional[ChargeTag]) -> AsyncReadHandle:
        """One request through the discipline-scheduled arm.

        The service time is fixed at issue: a request continuing the
        stream the arm most recently *served* reads sequentially
        (transfer only); anything else pays the full latency + seek +
        transfer.  Under reordering this is an approximation — exact for
        the engine's dominant pattern (a thread issues a disk's next
        request only after consuming the previous completion), and a
        request whose stream lost the arm in between (e.g. to a
        preempting higher-priority read) correctly pays the re-seek.
        The arm serves the request whenever the discipline grants it,
        including preempting a running lower-priority transfer.
        """
        now = self.env.now
        sequential = stream is not None and stream == self._last_stream
        if sequential:
            service = self.params.transfer_time(pages)
        else:
            service = self.params.service_time(pages)
        self.requests += 1
        self.pages_read += pages
        done = self.env.event(f"read:{self.name}")
        self.env.process(
            self._serve(service, pages, stream, tag or DEFAULT_TAG, done),
            name=f"disk:{self.name}",
        )
        return AsyncReadHandle(done, pages, now)

    def _serve(self, service: float, pages: int, stream: object,
               tag: ChargeTag, done: Event):
        started = self.env.now
        yield from self._arm.use(service, tag)
        self.busy_time += service
        self._record_wait(tag.key, self.env.now - started - service)
        # The scheduled arm tracks the last *served* stream (the analytic
        # FIFO arm tracks issue order, where the two coincide).
        self._last_stream = stream
        done.succeed(pages)
