"""Workload sweep — multiprogramming level × skew × strategy.

The paper evaluates strategies one query at a time; this experiment is
the serving-layer extension the ROADMAP asks for: sustained closed-loop
query streams against one hierarchical machine, sweeping the
multiprogramming level (MPL), the redistribution skew and the execution
strategy, and reading back workload-level observables — throughput, p95
latency, mean queueing delay, CPU contention and per-query steal traffic.

The grid is data, not code: one base
:class:`~repro.api.spec.ScenarioSpec` (cluster, engine params, workload,
plan population) plus a :class:`~repro.api.sweep.SweepSpec` with
``skew`` / ``strategy`` / ``mpl`` axes; the generic grid runner
materializes the cells and fans them over
:func:`repro.experiments.parallel.parallel_map`.  Queries come from the
paper's own mixed plan population (``PlanSpec(kind="workload_mix")``,
the Section 5.1.2 construction: 30–60-minute-band bushy plans), so
concurrent queries have genuinely different shapes and sizes.  Pass
``plans=[...]`` to sweep an explicit population instead
(``pipeline_chain_scenario`` reproduces the old behaviour).

Expected shape: the paper's Section 5.3 single-query ordering (DP over FP
under skew) survives multiprogramming.  DP's throughput meets or beats
FP's at every MPL under skew, because FP's static misallocation wastes
processor share that concurrent DP queries would soak up; p95 latency
grows with MPL for both (the machine saturates), but from a lower base
for DP.  In the pure closed loop the admission cap equals the client
population, so queueing delay stays zero — open-loop (Poisson/bursty)
drivers are where admission queueing appears (see the serving tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..api.facade import RunResult, run as run_scenario
from ..api.spec import PlanSpec, ScenarioSpec
from ..api.sweep import SweepSpec, run_sweep
from ..serving import AdmissionPolicy, ArrivalSpec, WorkloadSpec
from ..sim.machine import MachineConfig
from .config import ExperimentOptions, scaled_execution_params
from .registry import register_experiment
from .reporting import format_table

__all__ = ["WorkloadSweepResult", "run", "base_scenario", "sweep_spec",
           "PAPER_EXPECTATION", "MPL_LEVELS", "SKEW_LEVELS", "STRATEGIES"]

#: multiprogramming levels on the sweep's x-axis.
MPL_LEVELS = (1, 2, 4, 8)
#: redistribution skew (Zipf theta) levels.
SKEW_LEVELS = (0.0, 0.8)
#: strategies under comparison (SP is shared-memory-only; the serving
#: determinism tests cover it separately on one node).
STRATEGIES = ("DP", "FP")

PAPER_EXPECTATION = (
    "Consistent with the paper's single-query Section 5.3 ordering: under "
    "skew (theta = 0.8) DP throughput >= FP throughput at every "
    "multiprogramming level, DP ships less load-balancing data per query, "
    "and p95 latency rises with MPL for both strategies (saturation)."
)


@dataclass(frozen=True)
class SweepCell:
    """One (strategy, skew, MPL) measurement."""

    strategy: str
    skew: float
    mpl: int
    throughput: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    mean_queueing_delay: float
    cpu_contention: float
    steal_bytes: int


@dataclass(frozen=True)
class WorkloadSweepResult:
    """The full sweep grid."""

    cells: tuple[SweepCell, ...]
    options: ExperimentOptions

    def cell(self, strategy: str, skew: float, mpl: int) -> SweepCell:
        for cell in self.cells:
            if (cell.strategy == strategy and cell.skew == skew
                    and cell.mpl == mpl):
                return cell
        raise KeyError((strategy, skew, mpl))

    def table(self) -> str:
        blocks = []
        skews = sorted({c.skew for c in self.cells})
        strategies = sorted({c.strategy for c in self.cells})
        mpls = sorted({c.mpl for c in self.cells})
        for skew in skews:
            headers = ["MPL"]
            for strategy in strategies:
                headers += [f"{strategy} q/s", f"{strategy} p95",
                            f"{strategy} queue", f"{strategy} steal KB"]
            rows = []
            for mpl in mpls:
                row: list[object] = [mpl]
                for strategy in strategies:
                    cell = self.cell(strategy, skew, mpl)
                    row += [
                        f"{cell.throughput:.2f}",
                        f"{cell.p95_latency:.3f}",
                        f"{cell.mean_queueing_delay:.3f}",
                        f"{cell.steal_bytes / 1024:.1f}",
                    ]
                rows.append(row)
            blocks.append(format_table(
                headers, rows,
                title=f"Workload sweep, redistribution skew {skew:.1f} "
                      f"(closed loop, throughput in queries/s)",
            ))
        return "\n\n".join(blocks)


def base_scenario(options: ExperimentOptions,
                  nodes: int = 4, processors_per_node: int = 8,
                  queries_per_cell: int = 16) -> ScenarioSpec:
    """The sweep's base cell: MPL 1, no skew, DP, the 5.1.2 plan mix."""
    return ScenarioSpec(
        cluster=MachineConfig(nodes=nodes,
                              processors_per_node=processors_per_node),
        params=scaled_execution_params(
            scale=options.scale, seed=options.seed,
        ),
        workload=WorkloadSpec(
            queries=queries_per_cell,
            arrival=ArrivalSpec(kind="closed", population=1),
            strategy="DP",
            policy=AdmissionPolicy(max_multiprogramming=1),
            seed=options.seed,
        ),
        plans=PlanSpec(
            kind="workload_mix", plan_count=options.plans,
            workload_queries=options.workload_queries,
            scale=options.scale, seed=options.seed,
        ),
        label="workload-sweep",
    )


def sweep_spec(options: ExperimentOptions,
               mpl_levels: Sequence[int] = MPL_LEVELS,
               skew_levels: Sequence[float] = SKEW_LEVELS,
               strategies: Sequence[str] = STRATEGIES,
               nodes: int = 4, processors_per_node: int = 8,
               queries_per_cell: int = 16) -> SweepSpec:
    """The whole grid as data: base scenario × (skew, strategy, mpl) axes."""
    return SweepSpec(
        base=base_scenario(options, nodes=nodes,
                           processors_per_node=processors_per_node,
                           queries_per_cell=queries_per_cell),
        axes=(("skew", tuple(skew_levels)),
              ("strategy", tuple(strategies)),
              ("mpl", tuple(mpl_levels))),
        label="workload-sweep",
    )


def _collect_cell(result: RunResult) -> SweepCell:
    """Reduce one cell's run to its observables (runs in the worker)."""
    scenario = result.scenario
    metrics = result.metrics
    return SweepCell(
        strategy=scenario.workload.strategy,
        skew=scenario.params.skew.redistribution,
        mpl=scenario.workload.policy.max_multiprogramming,
        throughput=metrics.throughput(),
        p50_latency=metrics.p50_latency,
        p95_latency=metrics.p95_latency,
        p99_latency=metrics.p99_latency,
        mean_queueing_delay=metrics.mean_queueing_delay(),
        cpu_contention=metrics.total_cpu_contention(),
        steal_bytes=metrics.total_steal_bytes(),
    )


@register_experiment(
    "workload",
    "Workload sweep: MPL x skew x strategy (serving layer)",
    expectation=PAPER_EXPECTATION,
    accepts=("processes",),
)
def run(options: Optional[ExperimentOptions] = None,
        mpl_levels: Sequence[int] = MPL_LEVELS,
        skew_levels: Sequence[float] = SKEW_LEVELS,
        strategies: Sequence[str] = STRATEGIES,
        nodes: int = 4, processors_per_node: int = 8,
        queries_per_cell: int = 16,
        plans=None,
        processes: Optional[int] = None) -> WorkloadSweepResult:
    """Sweep MPL × skew × strategy over a mixed plan population.

    ``plans`` defaults to the paper's Section 5.1.2 workload compiled for
    the sweep's machine, limited to ``options.plans`` entries; each
    submitted query draws its plan from the population, so every cell
    mixes query shapes and sizes.  ``processes`` fans the independent
    cells across worker processes (None = sequential, 0 = one per core);
    the per-cell results are identical either way.
    """
    options = options or ExperimentOptions()
    sweep = sweep_spec(
        options, mpl_levels=mpl_levels, skew_levels=skew_levels,
        strategies=strategies, nodes=nodes,
        processors_per_node=processors_per_node,
        queries_per_cell=queries_per_cell,
    )
    if plans is not None:
        # An explicit plan population cannot be shipped to workers (it
        # may be arbitrary, unpicklable objects): run it in-process.
        cells = [
            _collect_cell(run_scenario(scenario, plans=list(plans)))
            for scenario in sweep.cells()
        ]
        return WorkloadSweepResult(cells=tuple(cells), options=options)
    cells = run_sweep(sweep, processes=processes, collect=_collect_cell)
    return WorkloadSweepResult(cells=tuple(cells), options=options)


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - CLI
    import argparse
    parser = argparse.ArgumentParser(
        description="Sweep multiprogramming level x skew x strategy."
    )
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--procs", type=int, default=8)
    parser.add_argument("--queries", type=int, default=16)
    parser.add_argument("--quick", action="store_true",
                        help="small grid for smoke runs")
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="fan cells across N processes (0 = per core)")
    args = parser.parse_args(argv)
    options = ExperimentOptions.quick() if args.quick else ExperimentOptions()
    kwargs = dict(nodes=args.nodes, processors_per_node=args.procs,
                  queries_per_cell=args.queries, processes=args.parallel)
    if args.quick:
        kwargs.update(nodes=2, processors_per_node=4,
                      queries_per_cell=8, mpl_levels=(1, 4),
                      skew_levels=(0.8,))
    result = run(options, **kwargs)
    print(result.table())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
