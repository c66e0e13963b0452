"""Evaluation harness: one module per table/figure of the paper."""

from .config import (
    DISK_TABLE,
    FIGURE10_CONFIGS,
    NETWORK_TABLE,
    SHARED_MEMORY_PROCS,
    ExperimentOptions,
    scaled_execution_params,
)
from .methodology import Series, average_speedup, relative_performance
from .runner import EXPERIMENTS, run_all

__all__ = [
    "DISK_TABLE",
    "FIGURE10_CONFIGS",
    "NETWORK_TABLE",
    "SHARED_MEMORY_PROCS",
    "ExperimentOptions",
    "scaled_execution_params",
    "Series",
    "average_speedup",
    "relative_performance",
    "EXPERIMENTS",
    "run_all",
]
