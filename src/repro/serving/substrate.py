"""The serving layer's machine: a substrate many queries share.

The machine is the engine's :class:`~repro.engine.substrate.Substrate`,
the same object a lone query runs on.  What is serving's is what only
co-resident queries need: the :class:`~repro.serving.broker.
CrossQueryBroker` (installed here so even a bare shared substrate runs
it; gated by ``params.cross_query_steal``) and tolerance of memory
overcommit (``strict_memory=False``).
"""

from __future__ import annotations

from typing import Optional

from ..engine.params import ExecutionParams
from ..engine.substrate import Substrate
from ..sim.machine import MachineConfig
from .broker import CrossQueryBroker

__all__ = ["SharedSubstrate"]


class SharedSubstrate(Substrate):
    """One physical machine shared by many concurrent query executions."""

    def __init__(self, config: MachineConfig,
                 params: Optional[ExecutionParams] = None):
        super().__init__(config, params, strict_memory=False)
        self.broker = CrossQueryBroker(self)
