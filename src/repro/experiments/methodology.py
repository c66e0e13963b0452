"""The paper's measurement methodology (Section 5.1.3).

"Since the different parallel execution plans correspond to 20 different
queries, computing the average response time does not make sense.
Therefore, the results will always be in terms of comparable execution
times. ... each point of a graph is obtained with n measurements, each on
a different plan, using the following formula:

    (1/n) * sum_i  rt_strategy(plan_i) / rt_reference(plan_i)

where the reference response time will be indicated for each experiment."

:func:`relative_performance` implements the formula;
:func:`average_speedup` is the Figure 8 instantiation (reference = the
same plan on one processor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["relative_performance", "average_speedup", "Series"]


def relative_performance(measured: Sequence[float],
                         reference: Sequence[float]) -> float:
    """Mean of per-plan response-time ratios (the Section 5.1.3 formula)."""
    if len(measured) != len(reference):
        raise ValueError(
            f"measured ({len(measured)}) and reference ({len(reference)}) "
            f"must pair up plan by plan"
        )
    if not measured:
        raise ValueError("need at least one measurement")
    for i, (m, r) in enumerate(zip(measured, reference)):
        if m <= 0 or r <= 0:
            raise ValueError(f"non-positive response time at plan {i}: {m}, {r}")
    # A left fold (float ``sum()`` rounds differently from 3.12 on).
    total = 0.0
    for m, r in zip(measured, reference):
        total += m / r
    return total / len(measured)


def average_speedup(single_processor: Sequence[float],
                    parallel: Sequence[float]) -> float:
    """Average per-plan speedup: mean of rt(1 proc) / rt(p procs)."""
    return relative_performance(single_processor, parallel)


@dataclass(frozen=True)
class Series:
    """One plotted series: a name and (x, y) points."""

    name: str
    points: tuple[tuple[float, float], ...]

    def xs(self) -> list[float]:
        return [x for x, _ in self.points]

    def ys(self) -> list[float]:
        return [y for _, y in self.points]

    def y_at(self, x: float) -> float:
        for px, py in self.points:
            if px == x:
                return py
        raise KeyError(f"no point at x={x} in series {self.name}")
