"""Evaluation harness: one module per table/figure of the paper."""

from .config import (
    DISK_TABLE,
    FIGURE10_CONFIGS,
    NETWORK_TABLE,
    ExperimentOptions,
    scaled_execution_params,
)
from .methodology import relative_performance

__all__ = [
    "DISK_TABLE",
    "FIGURE10_CONFIGS",
    "NETWORK_TABLE",
    "ExperimentOptions",
    "scaled_execution_params",
    "relative_performance",
]
