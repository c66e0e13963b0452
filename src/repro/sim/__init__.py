"""Simulation substrate: event kernel, machine, disks, network, RNG.

This subpackage stands in for the paper's 72-processor KSR1 testbed (see
ARCHITECTURE.md, "Substitutions").  Everything above it — the execution engine,
the strategies, the experiments — runs unchanged in virtual time.
"""

from .core import (
    ChargeTag,
    DEFAULT_TAG,
    Environment,
    Event,
    FairShareDiscipline,
    FIFODiscipline,
    PriorityPreemptiveDiscipline,
    Process,
    Resource,
    SchedulingDiscipline,
    SimulationError,
    Timeout,
    discipline_names,
    make_discipline,
)
from .disk import AsyncReadHandle, Disk, DiskParams
from .machine import (KB, MB, PAGE_SIZE, Machine, MachineConfig,
                      MemoryExhausted, Processor, SMNode, make_disks,
                      make_processors)
from .network import Message, Network, NetworkLink, NetworkParams
from .rng import RandomStreams, derive_seed

__all__ = [
    "ChargeTag",
    "DEFAULT_TAG",
    "Environment",
    "Event",
    "FIFODiscipline",
    "FairShareDiscipline",
    "PriorityPreemptiveDiscipline",
    "Process",
    "Resource",
    "SchedulingDiscipline",
    "SimulationError",
    "Timeout",
    "discipline_names",
    "make_discipline",
    "AsyncReadHandle",
    "Disk",
    "DiskParams",
    "KB",
    "MB",
    "PAGE_SIZE",
    "Machine",
    "MachineConfig",
    "MemoryExhausted",
    "Processor",
    "make_disks",
    "make_processors",
    "SMNode",
    "Message",
    "Network",
    "NetworkLink",
    "NetworkParams",
    "RandomStreams",
    "derive_seed",
]
