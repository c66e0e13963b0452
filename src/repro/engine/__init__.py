"""The execution engine: the paper's dynamic load-balancing model.

Public surface:

- :class:`QueryExecutor` — run a plan on a machine with a strategy;
- :class:`Substrate` — the machine every execution is launched on;
- :class:`ExecutionParams` — every engine knob;
- :class:`ExecutionResult` / :class:`ExecutionMetrics` — outcomes;
- the strategy registry (``DP``, ``FP``, ``SP``).
"""

from .activation import DataActivation, TriggerActivation
from .context import ExecutionContext, ExecutionDeadlock
from .executor import QueryExecutor
from .metrics import ExecutionMetrics, ExecutionResult
from .params import ExecutionParams
from .queues import ActivationQueue, OperatorQueueSet, QueueFull
from .strategies import (
    DynamicProcessing,
    ExecutionStrategy,
    FixedProcessing,
    StrategyError,
    SynchronousPipeliningExecutor,
    make_strategy,
    strategy_names,
)
from .substrate import Substrate

__all__ = [
    "DataActivation",
    "TriggerActivation",
    "ExecutionContext",
    "ExecutionDeadlock",
    "QueryExecutor",
    "Substrate",
    "ExecutionMetrics",
    "ExecutionResult",
    "ExecutionParams",
    "ActivationQueue",
    "OperatorQueueSet",
    "QueueFull",
    "DynamicProcessing",
    "ExecutionStrategy",
    "FixedProcessing",
    "StrategyError",
    "SynchronousPipeliningExecutor",
    "make_strategy",
    "strategy_names",
]
