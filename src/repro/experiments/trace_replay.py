"""Trace-driven serving: synthetic web-scale traffic, recorded and replayed.

Not a paper figure — a serving-layer experiment over the ROADMAP's
record/replay arc.  It renders a :class:`~repro.workloads.tracegen.
TraceGenSpec` (diurnal cycle, heavy-tailed sessions, a flash crowd,
correlated tenant bursts) into a trace, runs it through the full
admission/coordination stack while *recording* the structured event
stream, then replays its own recording and verifies the round-trip
property the regression suite enforces: byte-identical
``WorkloadMetrics.summary()``.

The table slices the run into diurnal phases, showing how offered load,
shedding and tail latency track the traffic shape — the sustained
mixed-workload evaluation style of the DynaHash line of work, with the
trace as the reproducible artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from ..api.facade import build_plans
from ..api.spec import ScenarioSpec
from ..engine.metrics import WorkloadMetrics
from ..serving.admission import AdmissionPolicy
from ..serving.arrivals import ArrivalSpec
from ..serving.driver import WorkloadDriver, WorkloadSpec
from ..serving.trace import MemoryLogger, Trace
from ..sim.machine import MachineConfig
from ..workloads.tracegen import TraceGenSpec, generate_trace
from .config import ExperimentOptions
from .registry import register_experiment
from .reporting import format_table

__all__ = ["run", "TraceReplayResult"]

PAPER_EXPECTATION = (
    "Replaying a recorded trace reproduces the run byte-for-byte; "
    "load, shedding and tail latency track the traffic's diurnal/flash "
    "shape rather than a stationary average."
)


@dataclass
class TraceReplayResult:
    """Per-phase workload behaviour plus the round-trip verdict."""

    phases: tuple
    metrics: WorkloadMetrics
    roundtrip_identical: bool
    queries: int

    def table(self) -> str:
        headers = ("phase", "span (s)", "arrivals", "rate (q/s)",
                   "completed", "shed", "p95 latency (s)")
        rows = [
            (
                label,
                f"{start:.2f}-{end:.2f}",
                arrivals,
                f"{rate:.1f}",
                completed,
                shed,
                f"{p95:.4f}" if p95 == p95 else "-",
            )
            for (label, start, end, arrivals, rate, completed, shed, p95)
            in self.phases
        ]
        verdict = ("byte-identical" if self.roundtrip_identical
                   else "DIVERGED (bug!)")
        table = format_table(
            headers, rows,
            title=(f"Trace-driven serving: {self.queries} queries, "
                   f"record->replay {verdict}"),
        )
        return table


def _phase_rows(trace: Trace, metrics: WorkloadMetrics,
                phases: int) -> tuple:
    """Slice the trace horizon into equal phases and aggregate each."""
    horizon = max(q.arrival_time for q in trace.queries)
    horizon = max(horizon, 1e-9)
    span = horizon / phases
    rows = []
    completions = list(metrics.completions)
    sheds = list(metrics.shed)
    for k in range(phases):
        start, end = k * span, (k + 1) * span
        last = k == phases - 1
        in_phase = lambda t: start <= t < end or (last and t == end)
        arrivals = sum(1 for q in trace.queries if in_phase(q.arrival_time))
        done = [c for c in completions if in_phase(c.arrival_time)]
        shed = sum(1 for s in sheds if in_phase(s.arrival_time))
        latencies = sorted(c.latency for c in done)
        if latencies:
            rank = max(0, int(round(0.95 * (len(latencies) - 1))))
            p95 = latencies[rank]
        else:
            p95 = float("nan")
        rows.append((
            f"t{k}", start, end, arrivals,
            arrivals / span if span > 0 else 0.0,
            len(done), shed, p95,
        ))
    return tuple(rows)


@register_experiment(
    "traces",
    "Trace-driven serving: synthetic traffic, record/replay round trip",
    expectation=PAPER_EXPECTATION,
)
def run(options: Optional[ExperimentOptions] = None,
        processes: Optional[int] = None,
        queries: Optional[int] = None,
        nodes: int = 2, processors_per_node: int = 4,
        base_rate: float = 60.0,
        phases: int = 4,
        max_multiprogramming: int = 6,
        queue_timeout: float = 1.5) -> TraceReplayResult:
    """Generate a trace, run + record it, replay, and report by phase.

    ``processes`` is unused: the replay needs the recording first.
    """
    options = options or ExperimentOptions()
    if queries is None:
        # Scale with the shared experiment knob so --quick stays cheap.
        queries = max(12, 3 * options.workload_queries)

    machine = MachineConfig(nodes=nodes,
                            processors_per_node=processors_per_node)
    plans = list(build_plans(ScenarioSpec(cluster=machine,
                                          plans=options.plan_mix())))

    gen = TraceGenSpec(
        queries=queries, seed=options.seed, base_rate=base_rate,
        diurnal_amplitude=0.6, diurnal_period=queries / base_rate * 2.0,
        flash_crowds=1, flash_magnitude=6.0,
        flash_duration=queries / base_rate / 8.0,
        interactive_slo=2.0,
    )
    trace = generate_trace(gen, len(plans))

    spec = WorkloadSpec(
        # queries/arrival are placeholders — the trace drives arrivals.
        queries=len(trace.queries), arrival=ArrivalSpec(kind="poisson"),
        policy=AdmissionPolicy(max_multiprogramming=max_multiprogramming,
                               queue_timeout=queue_timeout),
        seed=options.seed,
    )

    recorder = MemoryLogger()
    first = WorkloadDriver(plans, machine, spec, logger=recorder,
                           trace=trace).run()
    recorded = Trace.from_events(recorder.events)
    second = WorkloadDriver(plans, machine, spec, trace=recorded).run()
    identical = (
        json.dumps(first.metrics.summary(), sort_keys=True)
        == json.dumps(second.metrics.summary(), sort_keys=True)
    )
    return TraceReplayResult(
        phases=_phase_rows(trace, first.metrics, phases),
        metrics=first.metrics,
        roundtrip_identical=identical,
        queries=len(trace.queries),
    )

