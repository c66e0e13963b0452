"""Placement sweep — admission-time schedulers vs. the steal protocol.

The paper's answer to load imbalance is *reactive*: operator homes come
from the optimizer, and the Section 4 steal protocol redistributes
activations at run time when a processor idles.  The placement subsystem
(:mod:`repro.placement`) adds the *proactive* alternative a cluster
scheduler would take: rewrite each query's join homes at admission time
— round-robin windows, the least-loaded nodes, the nodes already
holding its base partitions, or the width that minimizes estimated
transfer cost.

This experiment runs the two head-to-head: every placement policy ×
steal protocol on/off × three regimes built from the paper's own plan
populations.  The interesting cells are the corners — a smart policy
with stealing *disabled* against the paper's verbatim homes with
stealing *enabled* — because they isolate "plan it right up front"
from "fix it as you go".

Expected shape (the measured crossover, quoted in the README): neither
side dominates.

* ``mixed`` (Section 5.1.2 population, no skew, deep multiprogramming):
  **placement wins** — round-robin windows give each admitted query a
  disjoint slice of the cluster, so concurrent queries stop contending
  on every node and the win is structural, before any stealing could
  react.
* ``mixed-skew`` (same population, redistribution skew 0.8, moderate
  multiprogramming): **stealing wins** — the imbalance is
  *intra*-query and only materializes during redistribution, after any
  admission-time decision is already frozen; no home rewrite can fix a
  skewed hash split, while idle processors stealing activations at run
  time can.
* ``io-heavy`` (disk-dominated chains, deep multiprogramming):
  placement edges out stealing — scans are pinned to their partitions
  either way, the disks set the pace, and shipping stolen pages
  mid-query is pure overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..api.facade import RunResult
from ..api.spec import PlanSpec, ScenarioSpec
from ..api.sweep import SweepSpec, run_scenarios
from ..catalog.skew import SkewSpec
from ..placement import PlacementSpec
from ..serving import AdmissionPolicy, ArrivalSpec, WorkloadSpec
from ..sim.machine import MachineConfig
from .config import ExperimentOptions, scaled_execution_params
from .registry import register_experiment
from .reporting import SweepResult, pivot_table

__all__ = ["PlacementSweepResult", "Regime", "run", "sweep_specs",
           "collect", "PAPER_EXPECTATION",
           "POLICIES", "REGIMES", "STEAL_MODES"]

#: placement policies on the sweep's x-axis (``paper`` = optimizer homes
#: verbatim, the reproduction's default).
POLICIES = ("paper", "round_robin", "load_aware", "location_aware",
            "transfer_aware", "threshold_local")
#: steal protocol on/off (``params.enable_global_lb``).
STEAL_MODES = (True, False)

PAPER_EXPECTATION = (
    "The paper only ever rebalances reactively (Section 4 stealing); "
    "admission-time placement is the scheduler-side alternative.  "
    "Expected crossover: round-robin placement wins the deeply "
    "multiprogrammed regimes (disjoint per-query node windows remove "
    "cross-query contention before it happens), while stealing wins "
    "under redistribution skew (the imbalance is intra-query and only "
    "appears at run time, where no admission-time rewrite can reach it)."
)


@dataclass(frozen=True)
class Regime:
    """One competition regime: a plan population under fixed pressure."""

    name: str
    population: str  # "workload_mix" | "io_heavy"
    skew: float      # redistribution Zipf theta
    mpl: int         # closed-loop population == admission cap


#: the three regimes of the head-to-head (see module docstring).
REGIMES = (
    Regime("mixed", "workload_mix", 0.0, 8),
    Regime("mixed-skew", "workload_mix", 0.8, 4),
    Regime("io-heavy", "io_heavy", 0.0, 8),
)


@dataclass(frozen=True)
class PlacementCell:
    """One (regime, policy, steal on/off) measurement."""

    regime: str
    policy: str
    steal: bool
    completed: int
    throughput: float
    p95_latency: float
    makespan: float
    steal_bytes: int
    plans_rewritten: int
    bytes_avoided: int


class PlacementSweepResult(SweepResult):
    """The full policy × steal × regime grid, one cell per row."""

    def table(self) -> str:
        on, off = {"steal": True}, {"steal": False}
        columns = (
            ("policy", {}, lambda c: c.policy),
            ("steal q/s", on, lambda c: f"{c.throughput:.2f}"),
            ("steal p95", on, lambda c: f"{c.p95_latency:.3f}"),
            ("steal KB", on, lambda c: f"{c.steal_bytes / 1024:.1f}"),
            ("no-steal q/s", off, lambda c: f"{c.throughput:.2f}"),
            ("no-steal p95", off, lambda c: f"{c.p95_latency:.3f}"),
            ("rewritten", on, lambda c: c.plans_rewritten),
            ("avoided KB", on, lambda c: f"{c.bytes_avoided / 1024:.1f}"),
        )
        blocks = [
            pivot_table(
                self.select(regime=regime), "policy", columns,
                title=(f"Placement x steal protocol, {regime} regime "
                       f"(closed loop, throughput in queries/s)"),
            )
            for regime in self.distinct("regime")
        ]
        blocks.append(self.crossover())
        return "\n\n".join(blocks)

    def crossover(self) -> str:
        """The head-to-head verdict per regime.

        Compares the best *proactive* corner (smart policy, stealing
        off) against the paper's *reactive* corner (verbatim homes,
        stealing on) by throughput.
        """
        lines = ["Crossover (best smart policy, steal OFF vs paper homes, "
                 "steal ON):"]
        for regime in self.distinct("regime"):
            reactive = self.cell(regime=regime, policy="paper", steal=True)
            smart = [cell for cell in self.select(regime=regime, steal=False)
                     if cell.policy != "paper"]
            best = max(smart, key=lambda c: (c.throughput, -c.makespan))
            if best.throughput > reactive.throughput:
                verdict = "placement wins"
            elif best.throughput < reactive.throughput:
                verdict = "stealing wins"
            else:
                verdict = ("tie on throughput; "
                           + ("placement wins"
                              if best.makespan < reactive.makespan
                              else "stealing wins")
                           + " on makespan")
            lines.append(
                f"  {regime}: {best.policy}/no-steal "
                f"{best.throughput:.2f} q/s (p95 {best.p95_latency:.3f}s) "
                f"vs paper/steal {reactive.throughput:.2f} q/s "
                f"(p95 {reactive.p95_latency:.3f}s) -> {verdict}"
            )
        return "\n".join(lines)

    def digest(self) -> str:
        """Outcome lines — what the determinism gate pins.

        Per cell, the admission-time discrete outcomes (completions,
        plans rewritten, estimated bytes avoided), then a second block
        with the timing outcomes as raw floats plus the steal traffic.
        """
        def head(cell: PlacementCell) -> str:
            return (f"{cell.regime} {cell.policy} "
                    f"steal={'on' if cell.steal else 'off'}")

        lines = [
            f"{head(cell)}: completed={cell.completed} "
            f"rewritten={cell.plans_rewritten} "
            f"avoided={cell.bytes_avoided}"
            for cell in self.rows
        ]
        lines += [
            f"{head(cell)} timing: throughput={cell.throughput!r} "
            f"p95={cell.p95_latency!r} makespan={cell.makespan!r} "
            f"steal_bytes={cell.steal_bytes}"
            for cell in self.rows
        ]
        return "\n".join(lines)


def sweep_specs(options: ExperimentOptions,
                regimes: Sequence[Regime] = REGIMES,
                policies: Sequence[str] = POLICIES,
                steal_modes: Sequence[bool] = STEAL_MODES,
                nodes: int = 4, processors_per_node: int = 4,
                queries_per_cell: int = 12,
                width: int = 2) -> list[SweepSpec]:
    """One grid per regime as data: a base cell (paper homes, stealing
    on) × (policy, steal on/off) axes.

    ``width`` is the non-paper policies' target home width
    (``transfer_aware`` picks its own cost-minimizing width).
    """
    return [SweepSpec(
        base=ScenarioSpec(
            cluster=MachineConfig(nodes=nodes,
                                  processors_per_node=processors_per_node),
            params=scaled_execution_params(
                scale=options.scale,
                skew=SkewSpec.uniform_redistribution(regime.skew),
                seed=options.seed,
            ),
            workload=WorkloadSpec(
                queries=queries_per_cell,
                arrival=ArrivalSpec(kind="closed", population=regime.mpl),
                strategy="DP",
                policy=AdmissionPolicy(max_multiprogramming=regime.mpl),
                placement=PlacementSpec(scheduler="paper", width=width),
                seed=options.seed,
            ),
            plans=(PlanSpec(kind="io_heavy", base_tuples=4000)
                   if regime.population == "io_heavy"
                   else options.plan_mix()),
            label=f"placement-{regime.name}",
        ),
        axes=(("workload.placement.scheduler", tuple(policies)),
              ("params.enable_global_lb", tuple(steal_modes))),
        label=f"placement-{regime.name}",
    ) for regime in regimes]


def collect(result: RunResult) -> PlacementCell:
    """Reduce one cell's run to its observables (runs in the worker)."""
    scenario = result.scenario
    metrics = result.metrics
    placement = metrics.placement_summary() or {
        "plans_rewritten": 0, "bytes_avoided": 0,
    }
    return PlacementCell(
        regime=scenario.label.removeprefix("placement-"),
        policy=scenario.workload.placement.scheduler,
        steal=scenario.params.enable_global_lb,
        completed=metrics.completed,
        throughput=metrics.throughput(),
        p95_latency=metrics.p95_latency,
        makespan=metrics.makespan,
        steal_bytes=metrics.total_steal_bytes(),
        plans_rewritten=placement["plans_rewritten"],
        bytes_avoided=placement["bytes_avoided"],
    )


@register_experiment(
    "placement",
    "Placement sweep: policy x steal protocol x regime",
    expectation=PAPER_EXPECTATION,
)
def run(options: Optional[ExperimentOptions] = None,
        processes: Optional[int] = None,
        **shape) -> PlacementSweepResult:
    """Sweep placement policy × steal protocol over the three regimes.

    ``shape`` is :func:`sweep_specs`'s keywords.  Each cell is one
    closed-loop serving run at the regime's multiprogramming level.
    ``processes`` fans the independent cells across worker processes
    (None = sequential, 0 = one per core); the per-cell results are
    identical either way.
    """
    options = options or ExperimentOptions()
    scenarios = [cell for sweep in sweep_specs(options, **shape)
                 for cell in sweep.cells()]
    rows = run_scenarios(scenarios, processes=processes, collect=collect)
    return PlacementSweepResult(rows=tuple(rows))

