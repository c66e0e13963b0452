"""Skew models: Zipf distributions and the redistribution skew.

The paper measures skew resilience (Figures 9 and 10, Section 5.3) by
injecting *redistribution skew*: the tuples produced by an operator
distribute over the consumer's buckets according to a Zipf law
[Zipf49], with a factor between 0 (uniform) and 1 (high skew).

This module provides:

* :func:`zipf_weights` — the normalized Zipf weight vector;
* :func:`proportional_split` — deterministic largest-remainder integer
  apportionment (used wherever a tuple count is divided across buckets,
  nodes, or disks: sums are exact, no sampling noise);
* :class:`SkewSpec` — the redistribution skew a run injects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["zipf_weights", "proportional_split", "SkewSpec"]


def zipf_weights(n: int, theta: float,
                 rng: Optional[random.Random] = None) -> list[float]:
    """Normalized Zipf weights ``w_i ∝ 1 / (i+1)**theta`` for ``n`` cells.

    ``theta = 0`` gives a uniform distribution; ``theta = 1`` the classic
    Zipf law the paper calls "high skew".  When ``rng`` is given the weights
    are randomly permuted, so that the heavy cells do not systematically
    align with low bucket indices (and hence, after round-robin placement,
    with low node numbers).

    >>> zipf_weights(4, 0.0)
    [0.25, 0.25, 0.25, 0.25]
    """
    if n <= 0:
        raise ValueError(f"need at least one cell, got {n}")
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    raw = [1.0 / (i + 1) ** theta for i in range(n)]
    total = sum(raw)
    weights = [w / total for w in raw]
    if rng is not None:
        rng.shuffle(weights)
    return weights


def proportional_split(total: int, weights: Sequence[float]) -> list[int]:
    """Split ``total`` items across cells proportionally to ``weights``.

    Uses the largest-remainder method so that the result always sums to
    exactly ``total`` and no cell deviates from its quota by one item or
    more.  Deterministic: same inputs, same output.

    >>> proportional_split(10, [0.5, 0.3, 0.2])
    [5, 3, 2]
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if not weights:
        raise ValueError("weights must be non-empty")
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise ValueError("weights must sum to a positive value")
    quotas = [total * w / weight_sum for w in weights]
    counts = [int(q) for q in quotas]
    shortfall = total - sum(counts)
    # Hand out the remaining items to the cells with the largest remainders;
    # ties broken by cell index for determinism.
    remainders = sorted(
        range(len(weights)),
        key=lambda i: (quotas[i] - counts[i], -i),
        reverse=True,
    )
    for i in remainders[:shortfall]:
        counts[i] += 1
    return counts


@dataclass(frozen=True)
class SkewSpec:
    """The skew a run injects: the paper's redistribution skew.

    Of Walton91's taxonomy the paper's experiments "only exercise
    redistribution" skew (Section 5.2.2): the tuples an operator produces
    distribute over the consumer's buckets by a Zipf law whose factor is
    ``redistribution``, applied to trigger-activation production and to
    every pipelined producer alike.  0 is uniform, 1 the paper's "high
    skew".  Base relations are always partitioned evenly
    (:func:`~repro.catalog.partitioning.place_relation`).
    """

    redistribution: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.redistribution <= 1.0:
            raise ValueError(
                f"redistribution skew must be in [0, 1], got "
                f"{self.redistribution}"
            )
