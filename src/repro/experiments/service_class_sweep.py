"""Service-class sweep — scheduling discipline × multiprogramming level.

The serving-layer experiment for the machine-scheduler refactor: a mixed
workload of *interactive* (weight 4, priority 10, tight latency SLO) and
*batch* (weight 1, priority 0) queries runs against one hierarchical
machine under each CPU scheduling discipline — FIFO (the paper's model),
weighted fair sharing and priority-preemptive — at increasing
multiprogramming levels, reading back per-class throughput, p95 latency
and SLO attainment.

Three columns, each a declarative
:class:`~repro.api.sweep.SweepSpec` over a base
:class:`~repro.api.spec.ScenarioSpec` (the cell *is* the config — the
column, the swept discipline, the bandwidth are all read back off the
spec, no bespoke cell plumbing):

* **closed** — CPU discipline × MPL over the Section 5.3 chain;
* **io** — the **disk** discipline over a disk-dominated plan
  population (``PlanSpec(kind="io_heavy")``, disks at 20x the scaled
  latency), CPU pinned to FIFO: scheduling only the CPU would just move
  the interference to the disk queue;
* **net** — net discipline × bandwidth over the shared finite-bandwidth
  :class:`~repro.sim.network.NetworkLink` (CPU and disks FIFO).

Expected shape: FIFO is class-blind, so both classes see the same p95.
Fair sharing and (more strongly) priority preemption shorten the
interactive class's p95 at MPL >= 8 — its charges stop queueing behind
batch work — while batch throughput stays within 20% of FIFO's: the
disciplines reorder the same total work, they do not add any.  The same
ordering holds end to end at the disk arms and the link.

Every cell of the grid is an independent simulation, so the runner
fans them across cores (``repro-experiments --parallel``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from ..api.facade import run as run_scenario
from ..api.spec import PlanSpec, ScenarioSpec
from ..api.sweep import SweepSpec
from ..catalog.skew import SkewSpec
from ..serving import (AdmissionPolicy, ArrivalSpec, BATCH, INTERACTIVE,
                       WorkloadSpec)
from ..sim.disk import DiskParams
from ..sim.machine import MachineConfig
from .config import ExperimentOptions, scaled_execution_params
from .registry import register_experiment, sweep_cells
from .reporting import SweepResult, distinct, pivot_table, select

__all__ = ["ServiceClassSweepResult", "sweep_specs", "measure",
           "PAPER_EXPECTATION", "DISCIPLINES", "MPL_LEVELS",
           "IO_MPL_LEVELS", "NET_MPL", "NET_BANDWIDTHS", "io_heavy_params"]

#: scheduling disciplines under comparison (CPU and disk sweeps alike).
DISCIPLINES = ("fifo", "fair", "priority")
#: multiprogramming levels on the sweep's x-axis.
MPL_LEVELS = (2, 8)
#: multiprogramming levels of the I/O-heavy disk-discipline sweep.
IO_MPL_LEVELS = (8,)
#: how much slower than the figure-scaled disks the I/O-heavy sweep's
#: disks are (latency/seek at 20x the scaled setting, i.e. one fifth of
#: the paper's full-size values), making disk service the bottleneck.
IO_DISK_SCALE = 0.2
#: multiprogramming level of the finite-bandwidth link column.
NET_MPL = 8
#: link bandwidths (bytes/s) of the finite-bandwidth column: a loose
#: link where queueing is visible but mild, and a tight one (comparable
#: to a single disk arm's 6 MB/s) where the interconnect is a real
#: bottleneck and the link discipline decides who eats the queueing.
NET_BANDWIDTHS = (64e6, 8e6)

PAPER_EXPECTATION = (
    "The paper's engine is FIFO and class-blind; the pluggable scheduler "
    "layer adds the differentiation: at MPL >= 8 the interactive class's "
    "p95 latency improves under priority-preemptive (and fair) scheduling "
    "relative to FIFO, while batch throughput stays within 20% of FIFO's "
    "(the disciplines reorder work, they do not add any).  The same ordering "
    "holds end to end: on the I/O-heavy mix, priority scheduling of the "
    "disk arms improves the interactive p95 over FIFO disks at MPL >= 8 "
    "with batch throughput again within 20% — scheduling only the CPU "
    "would just move the interference to the disk queue."
)


@dataclass(frozen=True)
class ClassCell:
    """One (column, discipline, MPL, class) measurement."""

    #: which of the three sweeps the cell belongs to: ``closed`` /
    #: ``io`` / ``net`` (see module docstring).
    column: str
    #: the *swept* discipline: CPU on the closed column, disk on ``io``,
    #: link on ``net`` (the other resources stay FIFO).
    discipline: str
    mpl: int
    service_class: str
    completed: int
    throughput: float
    p50_latency: float
    p95_latency: float
    slo_attainment: float
    #: mean per-query queueing delay at each resource (cpu/disk/net) —
    #: the breakdown that says where the latency went.
    cpu_wait: float = 0.0
    disk_wait: float = 0.0
    net_wait: float = 0.0
    #: link bandwidth (bytes/s) of a finite-bandwidth cell; None on the
    #: CPU/disk columns (the paper's infinite interconnect).
    bandwidth: Optional[float] = None


_THROUGHPUT = ("q/s", lambda c: f"{c.throughput:.2f}")
_P95 = ("p95", lambda c: f"{c.p95_latency:.4f}")
_SLO = ("SLO%", lambda c: f"{c.slo_attainment:.0%}")

#: the report, one entry per column: the field whose values split the
#: column into tables, the index header, the per-class measures and a
#: table's title.
_LAYOUT = (
    ("closed", "mpl", "Discipline", (_THROUGHPUT, _P95, _SLO),
     lambda mpl: f"Service classes at MPL {mpl} (closed loop)"),
    ("io", "mpl", "Disk discipline",
     (_THROUGHPUT, _P95, ("disk-wait", lambda c: f"{c.disk_wait:.4f}")),
     lambda mpl: f"I/O-heavy mix at MPL {mpl}: disk discipline "
                 "(CPU stays FIFO)"),
    ("net", "bandwidth", "Net discipline",
     (_THROUGHPUT, _P95, ("net-wait", lambda c: f"{c.net_wait:.4f}")),
     lambda bandwidth: f"Finite-bandwidth link at MPL {NET_MPL}, "
                       f"{bandwidth / 1e6:.0f} MB/s: net discipline "
                       "(CPU and disks stay FIFO)"),
)


class ServiceClassSweepResult(SweepResult):
    """Every column's per-class rows, told apart by ``ClassCell.column``."""

    @classmethod
    def assemble(cls, options, cells, rows) -> "ServiceClassSweepResult":
        """One cell's rows per class, flattened in grid order."""
        return cls(rows=tuple(row for per_class in rows for row in per_class))

    def table(self) -> str:
        """Per table: a line per discipline, a column group per class."""
        blocks = []
        for column, split, header, measures, title in _LAYOUT:
            cells = self.select(column=column)
            columns = [(header, {}, lambda c: c.discipline)] + [
                (f"{name} {label}", {"service_class": name}, render)
                for name in distinct(cells, "service_class")
                for label, render in measures
            ]
            blocks += [
                pivot_table(select(cells, **{split: value}), "discipline",
                            columns, title=title(value))
                for value in distinct(cells, split)
            ]
        return "\n\n".join(blocks)


def io_heavy_params(options: ExperimentOptions, disk_discipline: str,
                    cpu_discipline: str = "fifo"):
    """Execution params whose service demand is dominated by the disks.

    The disks run at :data:`IO_DISK_SCALE` (20x the figure-scaled
    latency/seek) and triggers carry twice the default pages, so a
    query's lifetime is mostly disk service — the regime where only the
    *disk* discipline can protect the interactive class.  The CPU
    discipline defaults to FIFO to isolate the disks' contribution.
    """
    params = scaled_execution_params(
        scale=options.scale,
        skew=SkewSpec(redistribution=0.8),
        seed=options.seed,
        cpu_discipline=cpu_discipline,
        disk_discipline=disk_discipline,
    )
    return dataclasses.replace(
        params,
        disk=DiskParams(latency=17e-3 * IO_DISK_SCALE,
                        seek_time=5e-3 * IO_DISK_SCALE),
        pages_per_trigger=8,
    )


# ---------------------------------------------------------------------------
# Scenario construction: four sweeps over one base cell
# ---------------------------------------------------------------------------


def _class_mix(interactive_slo: float):
    """The interactive/batch population of every column."""
    interactive = dataclasses.replace(INTERACTIVE, latency_slo=interactive_slo)
    return ((interactive, 1.0), (BATCH, 2.0))


def sweep_specs(options: ExperimentOptions,
                mpl_levels: Sequence[int] = MPL_LEVELS,
                disciplines: Sequence[str] = DISCIPLINES,
                nodes: int = 2, processors_per_node: int = 4,
                base_tuples: int = 2000,
                queries_per_cell: int = 18,
                interactive_slo: float = 0.3,
                io_sweep: bool = True,
                io_mpl_levels: Sequence[int] = IO_MPL_LEVELS,
                net_sweep: bool = True,
                net_bandwidths: Sequence[float] = NET_BANDWIDTHS,
                ) -> list[SweepSpec]:
    """The experiment as data: one :class:`SweepSpec` per column."""
    cluster = MachineConfig(nodes=nodes,
                            processors_per_node=processors_per_node)
    closed_base = ScenarioSpec(
        cluster=cluster,
        params=scaled_execution_params(
            scale=options.scale,
            skew=SkewSpec(redistribution=0.8),
            seed=options.seed,
        ),
        workload=WorkloadSpec(
            queries=queries_per_cell,
            arrival=ArrivalSpec(kind="closed", population=1),
            policy=AdmissionPolicy(max_multiprogramming=1),
            classes=_class_mix(interactive_slo),
            seed=options.seed,
        ),
        plans=PlanSpec(kind="pipeline_chain", base_tuples=base_tuples),
        label="classes-closed",
    )
    sweeps = [SweepSpec(
        base=closed_base,
        axes=(("params.cpu_discipline", tuple(disciplines)),
              ("mpl", tuple(mpl_levels))),
        label="classes-closed",
    )]
    if io_sweep:
        io_base = dataclasses.replace(
            closed_base,
            params=io_heavy_params(options, disk_discipline="fifo"),
            plans=PlanSpec(kind="io_heavy", base_tuples=base_tuples),
            label="classes-io",
        )
        sweeps.append(SweepSpec(
            base=io_base,
            axes=(("params.disk_discipline", tuple(disciplines)),
                  ("mpl", tuple(io_mpl_levels))),
            label="classes-io",
        ))
    if net_sweep:
        # The link is the variable: CPU and disks stay FIFO, the
        # interconnect gets finite bandwidth + the swept discipline.
        net_base = dataclasses.replace(
            closed_base,
            workload=dataclasses.replace(
                closed_base.workload,
                arrival=ArrivalSpec(kind="closed", population=NET_MPL),
                policy=AdmissionPolicy(max_multiprogramming=NET_MPL),
            ),
            label="classes-net",
        )
        sweeps.append(SweepSpec(
            base=net_base,
            axes=(("params.network.bandwidth", tuple(net_bandwidths)),
                  ("params.net_discipline", tuple(disciplines))),
            label="classes-net",
        ))
    return sweeps


def measure(cell: ScenarioSpec) -> list[ClassCell]:
    """Run one cell and reduce it to per-class rows (runs in the
    worker)."""
    result = run_scenario(cell)
    scenario = result.scenario
    column = scenario.label.removeprefix("classes-")
    params = scenario.params
    discipline = {"io": params.disk_discipline,
                  "net": params.net_discipline}.get(column,
                                                    params.cpu_discipline)
    mpl = scenario.workload.policy.max_multiprogramming
    bandwidth = params.network.bandwidth if column == "net" else None
    metrics = result.metrics
    cells = []
    for name in metrics.class_names():
        waits = metrics.class_resource_waits(name)
        cells.append(ClassCell(
            column=column,
            discipline=discipline,
            mpl=mpl,
            service_class=name,
            completed=metrics.class_completed(name),
            throughput=metrics.class_throughput(name),
            p50_latency=metrics.class_latency_percentile(name, 50.0),
            p95_latency=metrics.class_latency_percentile(name, 95.0),
            slo_attainment=metrics.slo_attainment(name),
            cpu_wait=waits["cpu"],
            disk_wait=waits["disk"],
            net_wait=waits["net"],
            bandwidth=bandwidth,
        ))
    return cells


register_experiment(
    "classes",
    "Service classes: CPU discipline x MPL (machine-scheduler layer)",
    cells=sweep_cells(sweep_specs), measure=measure,
    assemble=ServiceClassSweepResult.assemble,
    expectation=PAPER_EXPECTATION,
)
