"""Query executor: plan + machine + strategy -> execution result.

The public entry point of the engine, and one protocol for every
strategy: ``launch(substrate)`` starts the execution on a machine
(:class:`~repro.engine.substrate.Substrate`) and returns its handle — an
:class:`~repro.engine.context.ExecutionContext` for DP and FP, SP's own —
whose ``finished`` event fires at completion, and ``collect(execution)``
freezes the result.  :meth:`QueryExecutor.run` is that protocol on a
private machine; the coordinator drives it on a shared one.

Example::

    from repro.engine import QueryExecutor
    result = QueryExecutor(plan, config, strategy="DP").run()
    print(result.response_time, result.metrics.idle_fraction())
"""

from __future__ import annotations

import sys
from typing import Callable, Optional, Union

from ..optimizer.plan import ParallelExecutionPlan
from ..sim.machine import MachineConfig
from .context import ExecutionContext, ExecutionDeadlock
from .metrics import ExecutionMetrics, ExecutionResult
from .params import ExecutionParams
from .scheduler import NodeScheduler
from .strategies.base import ExecutionStrategy, make_strategy
from .strategies.sp import SynchronousPipeliningExecutor
from .substrate import Substrate
from .template import ExecutionTemplate
from .thread_exec import ExecutionThread

__all__ = ["QueryExecutor"]


class QueryExecutor:
    """Runs one parallel execution plan on one simulated machine."""

    def __init__(self, plan: ParallelExecutionPlan, config: MachineConfig,
                 strategy: Union[str, ExecutionStrategy] = "DP",
                 params: Optional[ExecutionParams] = None,
                 template: Optional[Callable[[], ExecutionTemplate]] = None):
        """``template`` returns the caller's :class:`ExecutionTemplate` for
        ``(plan, config, params-sans-seed)``, shared by every query the
        caller launches on that plan; it is called by the launches that
        instantiate one, so SP, which reads none, never builds it.  An
        executor run alone builds a private template per launch."""
        self.plan = plan
        self.config = config
        self.params = params or ExecutionParams()
        self.template = template
        #: SP bypasses the activation engine: its own executor runs it.
        self._sp = None
        if isinstance(strategy, str):
            # Shared by every result that names it, as is config_label.
            self.strategy_name = sys.intern(strategy.upper())
            self._strategy_instance = None
            if self.strategy_name == "SP":
                self._sp = SynchronousPipeliningExecutor(plan, config,
                                                         self.params)
        else:
            self.strategy_name = strategy.name
            self._strategy_instance = strategy

    def run(self) -> ExecutionResult:
        """Execute alone, to completion, on a private machine (one that
        raises ``MemoryExhausted`` when a chain does not fit); raises
        :class:`ExecutionDeadlock` if the simulation wedges (an engine bug)."""
        substrate = Substrate(self.config, self.params)
        execution = self.launch(substrate)
        substrate.env.run()
        if not execution.done:
            execution.assert_all_terminated()
            raise ExecutionDeadlock("simulation drained without finishing")
        result = self.collect(execution)
        substrate.close()
        return result

    def launch(self, substrate: Substrate, query_id: int = 0,
               service_class=None):
        """Build and start an execution, without running the simulation.

        Creates the context on ``substrate`` (where it contends with
        whatever else was launched there — see :mod:`repro.serving`),
        wires the per-node schedulers, creates one thread per processor
        (Section 3.1: one thread per processor *per query*), seeds the
        trigger activations and starts the threads.  ``service_class``
        tags the query's CPU charges with its weight/priority for
        non-FIFO scheduling disciplines.  The caller decides when the
        environment runs; completion is observable on the returned
        execution's ``finished`` event.
        """
        if self._sp is not None:
            return self._sp.launch(substrate, query_id, service_class)
        strategy = self._strategy_instance
        if strategy is None:
            strategy = make_strategy(self.strategy_name)
        # A private template lasts for this instantiation only: the running
        # query's queues let go of each trigger chunk as it is consumed,
        # and a template kept here would hold them all until the end.
        template = (self.template() if self.template is not None
                    else ExecutionTemplate(self.plan, self.config, self.params))
        context = ExecutionContext(self.plan, self.config, substrate,
                                   self.params, query_id=query_id,
                                   service_class=service_class,
                                   template=template)
        context.strategy = strategy

        # Per-node schedulers (message handling, LB, end detection).
        for node in context.nodes:
            NodeScheduler(context, node)

        # One thread per processor per query (Section 3.1).
        for node in context.nodes:
            for index in range(self.config.processors_per_node):
                thread = ExecutionThread(context, node, index)
                node.threads.append(thread)

        strategy.initialize(context)
        context.seed_triggers()
        for node in context.nodes:
            for thread in node.threads:
                thread.start()
        return context

    def collect(self, context, queueing_delay: float = 0.0) -> ExecutionResult:
        """Freeze the finished execution ``launch`` returned: nothing
        reachable from the result changes once this returns.  It takes the
        context's counters with it, and the context gets a scratch sink
        for the threads whose last charge was still in flight when the
        root operator ended (they go on adding CPU contention).
        ``queueing_delay`` is the pre-admission wait the serving layer
        measured (0 when run alone)."""
        if self._sp is not None:
            return self._sp.collect(context, queueing_delay)
        metrics = context.metrics
        context.metrics = ExecutionMetrics()
        metrics.queueing_delay = queueing_delay
        metrics.fold_threads(thread for node in context.nodes
                             for thread in node.threads)
        metrics.result_tuples = context.result_sink.tuples
        metrics.data_activations = sum(
            channel.activations_emitted for channel in context.channels.values()
        )
        network = context.network
        metrics.messages_sent = network.messages_sent
        metrics.bytes_sent = network.bytes_sent
        metrics.pipeline_bytes = network.bytes_for("pipeline")
        metrics.loadbalance_bytes = network.bytes_for("loadbalance")
        metrics.control_bytes = network.bytes_for("control")
        metrics.loadbalance_messages = network.messages_for("loadbalance")
        # Per-query stores, not the node pools: under a shared substrate
        # the pool watermark mixes every concurrent query's reservations.
        metrics.memory_high_watermark = max(
            (n.store.high_watermark for n in context.nodes), default=0
        )
        context.close()
        return ExecutionResult(
            plan_label=self.plan.label,
            strategy=self.strategy_name,
            config_label=self.config.describe(),
            response_time=context.response_time,
            metrics=metrics,
            queueing_delay=queueing_delay,
        )
