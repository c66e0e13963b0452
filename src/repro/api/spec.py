"""Declarative scenario specs: the whole evaluation grid as one data tree.

A :class:`ScenarioSpec` is the serializable description of *everything*
one run needs — cluster topology (:class:`~repro.sim.machine.
MachineConfig`), engine knobs (:class:`~repro.engine.params.
ExecutionParams`), workload (arrivals, service classes, admission policy:
:class:`~repro.serving.spec.WorkloadSpec`) and the plan population
(:class:`PlanSpec`).  ``repro.run(scenario)`` executes it; two equal
specs produce byte-identical metrics, and ``ScenarioSpec.from_json(
spec.to_json()) == spec`` holds losslessly (see :mod:`repro.api.serde`).

Plans are the one part of a scenario that is not literal data — a
compiled :class:`~repro.optimizer.plan.ParallelExecutionPlan` is a big
object graph.  A :class:`PlanSpec` therefore names a deterministic plan
*factory* plus its scalar knobs; the factory output is a pure function
of ``(plan spec, cluster)``, which is what makes scenario files
reproducible and sweep cells picklable.

Every type a spec tree holds comes from a ``spec`` module
(:mod:`repro.serving.spec`, :mod:`repro.cluster.spec`,
:mod:`repro.placement.spec`) or is a machine / engine knob set, so
loading and validating a scenario imports no runtime: a
``mode="single"`` run never loads the serving, cluster or placement
machinery at all.

:func:`replace_path` is the spec-surgery primitive the sweep layer
builds on: ``replace_path(spec, "params.cpu_discipline", "fair")``
rebuilds the frozen tree along one dotted path, re-running every
``__post_init__`` validator on the way up.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..cluster.spec import AutoscalerSpec, ClusterEventSpec, ClusterSpec
from ..engine.params import ExecutionParams
from ..placement.spec import PlacementSpec
from ..serving.spec import RetryPolicySpec, TraceGenSpec, WorkloadSpec
from ..sim.machine import MachineConfig
from .serde import SpecError, decode, encode, from_json, to_json

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..serving.trace import Trace

__all__ = [
    "PLAN_KINDS",
    "AutoscalerSpec",
    "ClusterEventSpec",
    "ClusterSpec",
    "PlacementSpec",
    "PlanSpec",
    "RetryPolicySpec",
    "ScenarioSpec",
    "TraceSpec",
    "get_path",
    "replace_path",
]

#: plan-population factories a :class:`PlanSpec` may name.
PLAN_KINDS = ("pipeline_chain", "two_node", "workload_mix", "io_heavy")


@dataclass(frozen=True)
class PlanSpec:
    """Deterministic description of a scenario's plan population.

    ``kind`` selects the factory; the other fields are its knobs (each
    factory reads only its own — the unread ones keep their defaults so
    spec equality stays meaningful):

    * ``"pipeline_chain"`` — the Section 5.3 chain
      (:func:`~repro.workloads.scenarios.pipeline_chain_scenario`):
      ``base_tuples``, ``chain_joins``; one plan.
    * ``"two_node"`` — the Section 3.3 example
      (:func:`~repro.workloads.scenarios.two_node_join_scenario`):
      ``r_tuples``, ``s_tuples``; one plan, clusters of 2 nodes only.
    * ``"workload_mix"`` — the Section 5.1.2 mixed population
      (:func:`~repro.workloads.plans.build_workload`): ``plan_count``
      plans out of ``workload_queries`` compiled at ``scale`` from
      ``seed``.
    * ``"io_heavy"`` — the disk-dominated chain mix
      (:func:`~repro.workloads.scenarios.io_heavy_chain_population`):
      ``base_tuples``.
    """

    kind: str = "pipeline_chain"
    # pipeline_chain / io_heavy knobs
    base_tuples: int = 4000
    chain_joins: int = 4
    # two_node knobs
    r_tuples: int = 4000
    s_tuples: int = 8000
    # workload_mix knobs
    plan_count: int = 40
    workload_queries: int = 20
    scale: float = 0.01
    seed: int = 1996

    def __post_init__(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise ValueError(
                f"unknown plan kind {self.kind!r}; known: {list(PLAN_KINDS)}",
            )
        for name in (
            "base_tuples",
            "chain_joins",
            "r_tuples",
            "s_tuples",
            "plan_count",
            "workload_queries",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def build(self, cluster: MachineConfig) -> tuple:
        """Compile the plan population for ``cluster`` (pure, uncached).

        The façade caches per ``(plan spec, cluster)`` — see
        :func:`repro.api.facade.build_plans`.
        """
        # Late imports: the workloads/optimizer stack is heavy and the
        # sweep workers only need it inside the worker process.  Every
        # factory takes the scenario's full cluster: its shape and page
        # size set the placements.  Its MIPS does not reach compilation
        # (the optimizer prices plans at ``cost.ESTIMATE_MIPS``).
        if self.kind == "pipeline_chain":
            from ..workloads.scenarios import pipeline_chain_scenario

            plan, _config = pipeline_chain_scenario(
                base_tuples=self.base_tuples,
                chain_joins=self.chain_joins,
                config=cluster,
            )
            plans = (plan,)
        elif self.kind == "two_node":
            from ..workloads.scenarios import two_node_join_scenario

            if cluster.nodes != 2:
                raise ValueError(
                    f"two_node plans need a 2-node cluster, got "
                    f"{cluster.nodes} nodes",
                )
            plan, _config = two_node_join_scenario(
                r_tuples=self.r_tuples,
                s_tuples=self.s_tuples,
                config=cluster,
            )
            plans = (plan,)
        elif self.kind == "io_heavy":
            from ..workloads.scenarios import io_heavy_chain_population

            built, _config = io_heavy_chain_population(
                base_tuples=self.base_tuples,
                config=cluster,
            )
            plans = tuple(built)
        else:  # workload_mix
            from ..workloads.plans import WorkloadConfig, build_workload

            workload = build_workload(
                cluster,
                WorkloadConfig(
                    queries=self.workload_queries,
                    scale=self.scale,
                    seed=self.seed,
                ),
            )
            plans = tuple(workload.plans[: self.plan_count])
        return plans


@dataclass(frozen=True)
class TraceSpec:
    """Where a serving scenario's query stream comes from, as data.

    Exactly one source:

    * ``path`` — a recorded JSON-lines trace file (``.gz`` by suffix),
      as written by ``repro-run --record`` or
      :class:`~repro.serving.trace.JsonLinesLogger`;
    * ``generate`` — a synthetic-traffic model
      (:class:`~repro.serving.spec.TraceGenSpec`) rendered to a
      trace at run time, so a scenario file stays self-contained.

    When set on a :class:`ScenarioSpec`, the trace *replaces* the
    workload spec's ``queries``/``arrival`` knobs (each replayed query
    carries its own arrival instant, plan index, strategy, class and
    engine seed); admission ``policy`` and engine ``params`` still come
    from the scenario.
    """

    path: str = ""
    generate: Optional[TraceGenSpec] = None

    def __post_init__(self) -> None:
        if bool(self.path) == (self.generate is not None):
            raise ValueError(
                "a TraceSpec needs exactly one source: a trace file "
                "'path' or a synthetic 'generate' model"
            )

    def resolve(self, plan_count: int) -> Trace:
        """The concrete trace: loaded from disk or generated (pure)."""
        if self.generate is not None:
            from ..workloads.tracegen import generate_trace

            return generate_trace(self.generate, plan_count)
        from ..serving.trace import Trace

        return Trace.load(self.path)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, serializable run description.

    ``mode`` selects the façade path: ``"serving"`` runs the workload
    through :class:`~repro.serving.driver.WorkloadDriver` (arrival
    stream, admission, multi-query coordination); ``"single"`` executes
    the population's first plan once via the single-query engine with
    ``workload.strategy`` and ``params`` (the paper's Figure regime).

    ``cluster`` is a :class:`~repro.cluster.spec.ClusterSpec` — the
    physical machine footprint plus (optionally) a membership timeline
    and an autoscaler.  A bare
    :class:`~repro.sim.machine.MachineConfig` is accepted and wrapped
    into a static ``ClusterSpec``, so every pre-elastic construction
    keeps working unchanged.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    params: ExecutionParams = field(default_factory=ExecutionParams)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    plans: PlanSpec = field(default_factory=PlanSpec)
    mode: str = "serving"
    label: str = ""
    #: replay a trace instead of generating arrivals (serving mode only).
    trace: Optional[TraceSpec] = None

    def __post_init__(self) -> None:
        if isinstance(self.cluster, MachineConfig):
            # Back-compat coercion: a bare machine is a static cluster.
            object.__setattr__(
                self, "cluster", ClusterSpec(machines=self.cluster)
            )
        if self.mode not in ("serving", "single"):
            raise ValueError(
                f"unknown mode {self.mode!r}; expected 'serving' or 'single'",
            )
        if self.trace is not None and self.mode != "serving":
            raise ValueError(
                "trace replay needs mode='serving'; single mode runs one "
                "query with no arrival stream"
            )
        if self.mode == "single" and self.cluster.elastic:
            raise ValueError(
                "single mode runs one query on a fixed machine; elastic "
                "clusters (events/autoscaler/initial_nodes) need "
                "mode='serving'"
            )

    # -- lossless (de)serialization -----------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form; every nested dataclass serializes generically."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild from :meth:`to_dict` output; unknown keys are errors."""
        return decode(cls, data)

    def to_json(self, indent: int = 2) -> str:
        return to_json(self, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return from_json(cls, text)


def get_path(spec, path: str):
    """Read a dotted field path (``"params.skew.redistribution"``)."""
    value = spec
    for name in path.split("."):
        if not dataclasses.is_dataclass(value):
            raise SpecError(
                f"cannot descend into {type(value).__name__!r} at "
                f"{name!r} of path {path!r}",
            )
        if name not in {f.name for f in dataclasses.fields(value)}:
            raise SpecError(
                f"{type(value).__name__} has no field {name!r} "
                f"(path {path!r}); known: "
                f"{sorted(f.name for f in dataclasses.fields(value))}",
            )
        value = getattr(value, name)
    return value


def replace_path(spec, path: str, value):
    """A copy of ``spec`` with the dotted ``path`` replaced by ``value``.

    Rebuilds every frozen dataclass along the path with
    :func:`dataclasses.replace`, so all ``__post_init__`` validation
    re-runs — an invalid sweep value fails at cell construction, not
    mid-run.
    """
    head, _, rest = path.partition(".")
    if not dataclasses.is_dataclass(spec):
        raise SpecError(f"cannot descend into {type(spec).__name__!r} at {head!r}")
    if head not in {f.name for f in dataclasses.fields(spec)}:
        raise SpecError(
            f"{type(spec).__name__} has no field {head!r}; known: "
            f"{sorted(f.name for f in dataclasses.fields(spec))}",
        )
    if rest:
        value = replace_path(getattr(spec, head), rest, value)
    return dataclasses.replace(spec, **{head: value})
