"""Strategy interface: how threads are associated with operators.

The three strategies of Section 5.2.1:

* **DP** (dynamic processing) — the paper's model: no static association,
  node-scope work stealing;
* **FP** (fixed processing) — the shared-nothing baseline adapted to
  shared-memory: threads statically allocated to operators per pipeline
  chain in proportion to estimated costs, per-operator work stealing;
* **SP** (synchronous pipelining) — the shared-memory baseline, which
  bypasses the activation machinery entirely (own executor, same
  ``launch(substrate)`` / ``collect`` protocol — not in this registry).

DP and FP share the activation engine ("[FP] was implemented by using our
execution model, restricting each thread to process activations associated
with only one operator"); the strategy object only injects the
restriction, the reallocation policy and the steal scope.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..context import ExecutionContext
    from ..opstate import OperatorRuntime
    from ..thread_exec import ExecutionThread

__all__ = ["ExecutionStrategy", "StrategyError", "register_strategy", "strategy_names"]


class StrategyError(ValueError):
    """Raised for unknown strategy names or invalid configurations."""


class ExecutionStrategy(ABC):
    """Pluggable thread-to-operator association policy."""

    #: registry key ("DP", "FP", ...).
    name: str = "?"

    @abstractmethod
    def initialize(self, context: "ExecutionContext") -> None:
        """Set up thread restrictions before trigger seeding."""

    @abstractmethod
    def steal_scopes(self, context: "ExecutionContext",
                     thread: "ExecutionThread") -> list[Optional[int]]:
        """Steal scopes an idle thread should trigger.

        ``None`` means node-scope (any probe operator); an operator id
        restricts the round to that operator's queues.
        """

    def cross_steal_scopes(self, context: "ExecutionContext",
                           node) -> list[Optional[int]]:
        """Steal scopes a broker-initiated (cross-query) round may use.

        Unlike :meth:`steal_scopes` there is no idle thread of *this*
        query — the starvation signal is machine-wide — so the scopes
        must come from the node's state alone.  The default is one
        node-scope round (correct for DP, where any thread can consume
        whatever arrives); FP narrows this to its consumable probe
        operators.
        """
        return [None]

    def on_op_unblocked(self, context: "ExecutionContext",
                        runtime: "OperatorRuntime") -> None:
        """Hook: an operator's scheduling predecessors all terminated."""

    def on_op_terminated(self, context: "ExecutionContext",
                         runtime: "OperatorRuntime") -> None:
        """Hook: an operator terminated everywhere."""


_REGISTRY: dict[str, type] = {}


def register_strategy(cls: type) -> type:
    """Class decorator: register an :class:`ExecutionStrategy` by name."""
    _REGISTRY[cls.name.upper()] = cls
    return cls


def strategy_names() -> list[str]:
    """Registered strategy names."""
    return sorted(_REGISTRY)


def make_strategy(name: str) -> ExecutionStrategy:
    """Instantiate a registered strategy by (case-insensitive) name."""
    try:
        cls = _REGISTRY[name.upper()]
    except KeyError:
        raise StrategyError(
            f"unknown strategy {name!r}; known: {strategy_names()}"
        ) from None
    return cls()
