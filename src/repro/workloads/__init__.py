"""Canned workloads: the 40-plan population and the paper's examples.

Synthetic trace generation lives in :mod:`repro.workloads.tracegen` and
is imported from there (its spec, :class:`~repro.serving.spec.
TraceGenSpec`, is a serving value type), so loading a plan factory never
loads the trace machinery.
"""

from .plans import Workload, WorkloadConfig, build_workload
from .scenarios import (
    io_heavy_chain_population,
    pipeline_chain_scenario,
    two_node_join_scenario,
)

__all__ = [
    "Workload",
    "WorkloadConfig",
    "build_workload",
    "io_heavy_chain_population",
    "pipeline_chain_scenario",
    "two_node_join_scenario",
]
