"""Skew models: Zipf distributions and the Walton91 skew taxonomy.

The paper measures skew resilience (Figures 9 and 10, Section 5.3) by
injecting *redistribution skew*: the tuples produced by an operator
distribute over the consumer's buckets according to a Zipf law
[Zipf49], with a factor between 0 (uniform) and 1 (high skew).

This module provides:

* :func:`zipf_weights` — the normalized Zipf weight vector;
* :func:`proportional_split` — deterministic largest-remainder integer
  apportionment (used wherever a tuple count is divided across buckets,
  nodes, or disks: sums are exact, no sampling noise);
* :class:`SkewSpec` — the Walton91 taxonomy knobs used by the experiments.
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
    """Skew configuration following the Walton91 taxonomy.

    The paper's experiments only exercise ``redistribution`` (applied to
    trigger-activation production and to every pipelined producer, Section
    5.2.2) but the other axes are modelled so tests and ablations can
    exercise them:

    - ``attribute_value`` / ``tuple_placement``: unbalanced base-relation
      partitions, i.e. skewed *trigger* activation distribution;
    - ``redistribution``: skewed data-activation distribution over the
      consumer's buckets;
    - ``selectivity``: per-bucket variation of scan selectivity;
    - ``join_product``: per-bucket variation of join fan-out.

    All factors are Zipf thetas in ``[0, 1]``.
    """

    redistribution: float = 0.0
    tuple_placement: float = 0.0
    attribute_value: float = 0.0
    selectivity: float = 0.0
    join_product: float = 0.0

    def __post_init__(self) -> None:
        for name in ("redistribution", "tuple_placement", "attribute_value",
                     "selectivity", "join_product"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} skew must be in [0, 1], got {value}")

    @classmethod
    def none(cls) -> "SkewSpec":
        """No skew on any axis (the paper's baseline)."""
        return cls()

    @classmethod
    def uniform_redistribution(cls, theta: float) -> "SkewSpec":
        """The paper's Figure 9/10 setting: the same redistribution skew
        factor on every operator."""
        return cls(redistribution=theta)
