"""``repro.run(scenario)``: one entry point for every kind of run.

The façade subsumes the manual wiring a scenario used to require —
building plans, a :class:`~repro.serving.coordinator.MultiQueryCoordinator`
on its shared :class:`~repro.engine.substrate.Substrate` and a
:class:`~repro.serving.driver.WorkloadDriver` by hand — behind one
declarative :class:`~repro.api.spec.ScenarioSpec`:

* ``mode="serving"`` — the full multi-query stack: the workload spec's
  arrival stream runs against the cluster under admission control and
  the configured scheduling disciplines, returning workload metrics.
* ``mode="single"`` — the paper's regime: the plan population's first
  plan executes alone via :class:`~repro.engine.executor.QueryExecutor`
  with ``workload.strategy``.

Both paths delegate to the exact legacy entry points (the driver and the
executor), so a scenario run is *metric-identical* to the equivalent
hand-wired run — the regression suite asserts byte equality of the
metrics digests.  A serving scenario's runtime (``serving.driver``,
plus the elastic cluster and the trace generator when the spec uses
them) is imported by :func:`build_plans`, a run's set-up, and by nothing
a single-mode scenario reaches, so a cold single-mode run never loads
the serving, cluster or placement runtimes.

Plan populations are memoized per ``(plan spec, cluster)``: plan
compilation is deterministic in those inputs, so sweep cells sharing a
population pay for it once per process.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..engine.metrics import ExecutionResult
from ..sim.machine import MachineConfig
from .serde import dumps, encode
from .spec import PlanSpec, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..serving.driver import WorkloadRunResult

__all__ = ["RunResult", "build_plan_bank", "build_plans", "run", "run_query"]


@lru_cache(maxsize=16)
def _cached_plans(plans: PlanSpec, cluster: MachineConfig) -> tuple:
    return plans.build(cluster)


def build_plans(scenario: ScenarioSpec) -> tuple:
    """The scenario's compiled plan population (memoized per process).

    On an elastic cluster this is the compilation for the *starting*
    node count — the full per-size bank is :func:`build_plan_bank`.
    Compiling the plans is a run's set-up, so it also loads the layers
    the scenario's mode executes: the first run imports nothing, and a
    single-mode scenario never loads the serving stack.
    """
    _import_runtime(scenario)
    cluster = scenario.cluster
    return _cached_plans(
        scenario.plans, cluster.machines_at(cluster.active_at_start)
    )


def _import_runtime(scenario: ScenarioSpec) -> None:
    """Import what a serving run of ``scenario`` executes (idempotent).

    A single-mode run needs only the engine, which ``ExecutionParams``
    has already loaded.
    """
    if scenario.mode == "single":
        return
    from ..serving import driver  # noqa: F401
    if scenario.cluster.elastic:
        from ..cluster import runtime  # noqa: F401
    if scenario.trace is not None and scenario.trace.generate is not None:
        from ..workloads import tracegen  # noqa: F401


def build_plan_bank(scenario: ScenarioSpec) -> dict:
    """``{nodes: plan population}`` for every reachable cluster size.

    The bank is what lets admission re-resolve a queued query against
    the live membership: index ``i`` of every entry is the *same* plan
    template compiled for a different node count, so ``plan_index``
    stays meaningful across sizes.  All entries must therefore have
    equal length (a factory whose population depended on the node count
    would break the correspondence — rejected here, loudly).
    """
    cluster = scenario.cluster
    bank = {
        size: _cached_plans(scenario.plans, cluster.machines_at(size))
        for size in cluster.reachable_sizes()
    }
    lengths = {size: len(plans) for size, plans in bank.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(
            f"plan population size varies with cluster size ({lengths}); "
            "plan_index must address the same template at every size"
        )
    return bank


@dataclass(frozen=True)
class RunResult:
    """What ``repro.run`` returns: the scenario plus its measurements.

    Exactly one of ``workload`` (serving mode) and ``execution`` (single
    mode) is set; :attr:`metrics` resolves to whichever applies.
    """

    scenario: ScenarioSpec
    workload: Optional[WorkloadRunResult] = None
    execution: Optional[ExecutionResult] = None

    @property
    def metrics(self):
        """Workload metrics (serving) or execution metrics (single)."""
        if self.workload is not None:
            return self.workload.metrics
        assert self.execution is not None
        return self.execution.metrics

    def summary(self) -> str:
        """One printable line per run — the CLI's default output."""
        if self.workload is not None:
            return str(self.workload)
        execution = self.execution
        assert execution is not None
        return (
            f"query [{execution.strategy} on {execution.config_label}, "
            f"plan {execution.plan_label}]: "
            f"response {execution.response_time:.6f}s, "
            f"{execution.metrics.result_tuples} result tuples, "
            f"{execution.metrics.activations_processed} activations"
        )

    def to_dict(self) -> dict:
        """The whole result as plain data: spec + measurements.

        The scenario round-trips losslessly
        (``ScenarioSpec.from_dict(d["scenario"]) == scenario``); the
        measurement side carries the full deterministic metrics digest
        (``metrics.summary()`` for serving runs, every
        ``ExecutionResult`` field for single runs).
        """
        data: dict = {"scenario": encode(self.scenario)}
        if self.workload is not None:
            w = self.workload
            data["workload"] = {
                "config_label": w.config_label,
                "admitted": w.admitted,
                "deferrals": w.deferrals,
                "clients": dataclasses.asdict(w.clients),
                "metrics": w.metrics.summary(),
            }
        if self.execution is not None:
            data["execution"] = dataclasses.asdict(self.execution)
        return data

    def to_json(self, indent: int = 2) -> str:
        """:meth:`to_dict` as JSON text (tuples become arrays)."""
        return dumps(self.to_dict(), indent=indent)


def run(scenario: ScenarioSpec, *, plans: Optional[Sequence] = None,
        record: Optional[Union[str, os.PathLike]] = None) -> RunResult:
    """Execute a scenario and return its :class:`RunResult`.

    ``plans`` overrides the scenario's declared population with explicit
    compiled plans (tests and ad-hoc studies with hand-built plans);
    everything else still comes from the spec.  Incompatible with an
    elastic cluster, whose admission re-resolves plans from a per-size
    bank the spec's factories build.

    ``record`` (serving mode only) writes the run's structured event
    stream to that path — a ``str`` or any ``os.PathLike`` — as JSON
    lines (gzip iff it ends in ``.gz``); the file replays via
    ``ScenarioSpec.trace = TraceSpec(path=...)`` with byte-identical
    metrics.  If ``scenario.trace`` is set, the workload spec's
    arrival/queries knobs are replaced by the trace's recorded schedule.
    """
    if record is not None:
        if scenario.mode == "single":
            raise ValueError(
                "record= captures a serving-mode event stream; single "
                "mode has no arrivals to record"
            )
        record = os.fspath(record)  # accept pathlib.Path once, here
    cluster = scenario.cluster
    if plans is not None and cluster.elastic:
        raise ValueError(
            "explicit plans= cannot drive an elastic cluster; admission "
            "needs the per-size plan bank built from the scenario's "
            "PlanSpec"
        )
    population = tuple(plans) if plans is not None else build_plans(scenario)
    if not population:
        raise ValueError("scenario has an empty plan population")
    if scenario.mode == "single":
        return RunResult(
            scenario=scenario,
            execution=_execute_single(scenario, population),
        )
    # Here, not at module top: a single-mode run never loads them.
    from ..serving.driver import WorkloadDriver
    from ..serving.trace import JsonLinesLogger

    trace = None
    if scenario.trace is not None:
        trace = scenario.trace.resolve(len(population))
    plan_bank = None
    relations = ()
    if cluster.elastic:
        from ..cluster.rebalance import resident_relations

        plan_bank = build_plan_bank(scenario)
        relations = resident_relations(population)
    logger = JsonLinesLogger(record) if record is not None else None
    try:
        driver = WorkloadDriver(
            list(population),
            cluster.machines,
            scenario.workload,
            scenario.params,
            logger=logger,
            trace=trace,
            cluster=cluster,
            plan_bank=plan_bank,
            relations=relations,
        )
        result = driver.run()
    finally:
        if logger is not None:
            logger.close()
    return RunResult(scenario=scenario, workload=result)


def run_query(
    scenario: ScenarioSpec,
    *,
    plans: Optional[Sequence] = None,
) -> ExecutionResult:
    """Single-query façade: run the scenario's first plan once.

    Works for any scenario regardless of ``mode`` — the strategy comes
    from ``workload.strategy``, the engine knobs from ``params``.
    """
    population = tuple(plans) if plans is not None else build_plans(scenario)
    if not population:
        raise ValueError("scenario has an empty plan population")
    return _execute_single(scenario, population)


def _execute_single(scenario: ScenarioSpec, population: tuple) -> ExecutionResult:
    from ..engine.executor import QueryExecutor

    return QueryExecutor(
        population[0],
        scenario.cluster.machines,
        strategy=scenario.workload.strategy,
        params=scenario.params,
    ).run()
