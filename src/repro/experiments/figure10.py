"""Figure 10 — DP vs FP on hierarchical configurations.

Paper setup (Section 5.3): 40 plans, redistribution skew 0.6, three
configurations (4x8, 4x12, 4x16 processors).  "We observed, among all
executions, performance gains between 14 and 39%.  This is due to less
utilization of global load balancing for DP as well as better performance
of DP on SM-nodes.  The communication overhead due to global load
balancing is 2 to 4 times smaller for DP.  Also, processor idle time with
DP is almost null whereas it is quite significant with FP."

The main table uses FP as the reference (FP = 1, DP below); the side
table carries the load-balancing traffic ratio and the idle-time
comparison.
"""

from __future__ import annotations

import statistics
from operator import attrgetter
from typing import Optional

from ..sim.machine import MachineConfig
from .config import FIGURE10_CONFIGS, ExperimentOptions
from .methodology import FigureResult, measure_points, single_point
from .registry import register_experiment
from .reporting import pivot_table

__all__ = ["Figure10Result", "run", "points", "PAPER_EXPECTATION"]

SKEW_FACTOR = 0.6

PAPER_EXPECTATION = (
    "DP outperforms FP on every configuration (paper: gains of 14-39%); "
    "DP's global-load-balancing traffic is 2-4x smaller; DP idle time "
    "near zero while FP's is significant."
)


class Figure10Result(FigureResult):
    """One point per (configuration, strategy)."""

    def table(self) -> str:
        config = ("nodes", "processors")
        order = list(dict.fromkeys(
            (point.nodes, point.processors) for point in self.rows))

        def mean(point, strategy, measure) -> float:
            """Mean of ``measure`` over the ``strategy`` runs of
            ``point``'s configuration."""
            peer = self.reference(point, strategy=strategy)
            return statistics.mean(map(measure, peer.runs))

        def relative(point) -> str:
            reference = self.reference(point, strategy="FP")
            return f"{point.relative_to(reference):.3f}"

        def gain(dp) -> str:
            fp = self.reference(dp, strategy="FP")
            return "{:.1%}".format(statistics.mean(
                (slow.response_time - fast.response_time) / slow.response_time
                for fast, slow in zip(dp.runs, fp.runs)
            ))

        def traffic(point) -> str:
            volume = attrgetter("loadbalance_bytes")
            return "{:.1f}x".format(mean(point, "FP", volume)
                                    / max(1.0, mean(point, "DP", volume)))

        def idle(strategy):
            return lambda point: "{:.1%}".format(
                mean(point, strategy, attrgetter("idle_fraction")))

        main = pivot_table(
            self.rows, config,
            (("config index", {},
              lambda point: order.index((point.nodes, point.processors))),
             ("DP", {"strategy": "DP"}, relative),
             ("FP", {"strategy": "FP"}, relative)),
            title=f"Figure 10: relative performance, skew "
                  f"{self.rows[0].skew} (reference = FP)",
        )
        side = pivot_table(
            self.select(strategy="DP"), config,
            (("config", {},
              lambda point: f"{point.nodes}x{point.processors}"),
             ("DP gain", {}, gain),
             ("FP/DP LB traffic", {}, traffic),
             ("DP idle", {}, idle("DP")),
             ("FP idle", {}, idle("FP"))),
            title="Section 5.3 observables",
        )
        return main + "\n\n" + side


def points(options: ExperimentOptions,
           configs: tuple[tuple[int, int], ...] = FIGURE10_CONFIGS,
           skew_factor: float = SKEW_FACTOR) -> tuple:
    """DP and FP on the hierarchical configurations under skew."""
    return tuple(
        single_point(options,
                     MachineConfig(nodes=nodes, processors_per_node=procs),
                     strategy, skew=skew_factor)
        for nodes, procs in configs
        for strategy in ("DP", "FP")
    )


@register_experiment("fig10", "Figure 10: DP vs FP, hierarchical",
                     expectation=PAPER_EXPECTATION)
def run(options: Optional[ExperimentOptions] = None,
        processes: Optional[int] = None, **shape) -> Figure10Result:
    """Measure the figure; ``shape`` is :func:`points`'s keywords."""
    options = options or ExperimentOptions()
    return Figure10Result(
        rows=measure_points(points(options, **shape), processes))
