"""Elastic cluster layer: membership as data, online rebalancing.

The node set serving queries is no longer frozen at machine construction
— a :class:`~repro.cluster.spec.ClusterSpec` describes the physical
footprint plus a timeline of joins/leaves and an optional autoscaler,
and the runtime (:class:`~repro.cluster.runtime.ElasticCluster`) changes
live membership mid-run with explicit, priced partition movement
(:class:`~repro.cluster.rebalance.Rebalancer`).

The package re-exports the spec types only; the runtime classes are
imported from :mod:`repro.cluster.runtime`,
:mod:`repro.cluster.rebalance` and :mod:`repro.cluster.membership`.
"""

from .spec import (CLUSTER_ACTIONS, AutoscalerSpec, ClusterEventSpec,
                   ClusterSpec)

__all__ = [
    "CLUSTER_ACTIONS",
    "AutoscalerSpec",
    "ClusterEventSpec",
    "ClusterSpec",
]
