"""Experiment configuration: the paper's parameter tables + scaling rules.

**Parameter tables (Section 5.1.1)** — reproduced verbatim as the
defaults of :class:`repro.sim.network.NetworkParams` and
:class:`repro.sim.disk.DiskParams`:

================================  =================
Network                            Value
================================  =================
Bandwidth                          infinite
End-to-end transmission delay      0.5 ms
CPU cost for sending 8 K bytes     10 000 instr
CPU cost for receiving 8 K bytes   10 000 instr
================================  =================

================================  =================
Disk                               Value
================================  =================
Nb. of disks                       1 per processor
Disk latency                       17 ms
Seek time                          5 ms
Transfer rate                      6 MB/s
CPU cost for async I/O init        5 000 instr
I/O cache size                     8 pages
================================  =================

**Scaling rule.**  The experiments run the paper's workload at
``scale = 0.01`` (relation cardinalities divided by 100) so that one
figure sweeps in minutes instead of days.  Per-tuple costs scale
automatically; *fixed* latencies (disk latency/seek, network transmission
delay) do not — left untouched they would dominate the 100x-shorter
pipelines and distort every ratio the paper reports from steady-state
runs.  :func:`scaled_execution_params` therefore multiplies the fixed
latencies by the same scale factor, preserving the paper's
fixed-cost-to-work ratio.  Per-byte and per-activation CPU costs are left
unscaled (they already shrink with the data).  Running with
``scale=1.0`` reproduces the paper's parameters exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..catalog.skew import SkewSpec
from ..engine.params import ExecutionParams
from ..sim.disk import DiskParams
from ..sim.network import NetworkParams

__all__ = [
    "NETWORK_TABLE",
    "DISK_TABLE",
    "scaled_execution_params",
    "ExperimentOptions",
    "FIGURE10_CONFIGS",
]

#: Section 5.1.1 network parameter table: (name, value) rows as printed.
NETWORK_TABLE = [
    ("Bandwidth (based on [Mehta95])", "Infinite"),
    ("End to end transmission delay", "0.5 ms"),
    ("CPU cost for sending 8K byte", "10000 instr."),
    ("CPU cost for receiving 8K byte", "10000 instr."),
]

#: Section 5.1.1 disk parameter table: (name, value) rows as printed.
DISK_TABLE = [
    ("Nb. of disks", "1 per processor"),
    ("Disk latency [Mehta95]", "17 ms"),
    ("Seek Time", "5 ms"),
    ("Transfer Rate", "6 MB/s"),
    ("CPU cost for asynchronous I/O init.", "5000 instr."),
    ("I/O Cache Size", "8 pages"),
]

#: hierarchical configurations of Figure 10: (nodes, processors per node).
FIGURE10_CONFIGS = ((4, 8), (4, 12), (4, 16))


def scaled_execution_params(scale: float = 0.01,
                            skew: Optional[SkewSpec] = None,
                            seed: int = 0,
                            **overrides) -> ExecutionParams:
    """Execution parameters with fixed latencies scaled to the workload.

    ``scale=1.0`` is exactly the paper's Section 5.1.1 configuration.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    disk = DiskParams(
        latency=17e-3 * scale,
        seek_time=5e-3 * scale,
    )
    network = NetworkParams(
        transmission_delay=0.5e-3 * scale,
    )
    return ExecutionParams(
        disk=disk,
        network=network,
        skew=skew or SkewSpec.none(),
        seed=seed,
        steal_cooldown=2e-3 * scale,
        **overrides,
    )


@dataclass(frozen=True)
class ExperimentOptions:
    """Shared experiment knobs.

    ``plans`` limits how many of the 40 workload plans each point uses
    (the paper averages over all 40; smaller values trade precision for
    speed, e.g. in ``--quick`` runs).  ``scale`` is the workload scale
    (see module docstring).
    """

    plans: int = 40
    scale: float = 0.01
    workload_queries: int = 20
    seed: int = 1996

    def __post_init__(self) -> None:
        if self.plans < 1:
            raise ValueError(f"plans must be >= 1, got {self.plans}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def plan_mix(self):
        """The Section 5.1.2 population as a scenario's ``PlanSpec``."""
        from ..api.spec import PlanSpec
        return PlanSpec(
            kind="workload_mix", plan_count=self.plans,
            workload_queries=self.workload_queries,
            scale=self.scale, seed=self.seed,
        )

    @classmethod
    def quick(cls) -> "ExperimentOptions":
        """A reduced setting for ``--quick`` runs and the slow tier."""
        return cls(plans=4, workload_queries=4)
