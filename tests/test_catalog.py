"""Unit and property tests for the catalog layer (relations, placement, skew)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    Relation,
    SizeClass,
    SkewSpec,
    partitioning_degree,
    place_relation,
    proportional_split,
    zipf_weights,
)


def pages_on_disk(placement, node_id: int, disk_id: int) -> int:
    """Pages of the placed relation on one disk of one node."""
    shares = placement.disk_shares(node_id)
    tuples = shares[disk_id] if disk_id < len(shares) else 0
    return math.ceil(tuples * placement.relation.tuple_size
                     / placement.page_size)


# ---------------------------------------------------------------------------
# Relation
# ---------------------------------------------------------------------------

class TestRelation:
    def test_bytes_and_pages(self):
        rel = Relation("R", cardinality=1000, tuple_size=100)
        assert rel.bytes == 100_000
        assert rel.pages(page_size=8192) == 13  # ceil(100000/8192)

    def test_empty_relation_has_zero_pages(self):
        assert Relation("R", 0).pages() == 0

    def test_tuples_per_page(self):
        assert Relation("R", 10, tuple_size=100).tuples_per_page(8192) == 81
        # Wide tuples still fit one per page.
        assert Relation("R", 10, tuple_size=100_000).tuples_per_page(8192) == 1

    def test_invalid_relations_rejected(self):
        with pytest.raises(ValueError):
            Relation("R", -1)
        with pytest.raises(ValueError):
            Relation("R", 1, tuple_size=0)
        with pytest.raises(ValueError):
            Relation("R", 1, heat=-0.5)

    def test_str(self):
        assert str(Relation("Orders", 42)) == "Orders(42)"


class TestSizeClass:
    def test_paper_ranges(self):
        assert SizeClass.SMALL.bounds == (10_000, 20_000)
        assert SizeClass.MEDIUM.bounds == (100_000, 200_000)
        assert SizeClass.LARGE.bounds == (1_000_000, 2_000_000)

    def test_sample_within_bounds(self):
        rng = random.Random(7)
        for _ in range(50):
            card = SizeClass.MEDIUM.sample(rng)
            assert 100_000 <= card <= 200_000

    def test_sample_scaled(self):
        rng = random.Random(7)
        for _ in range(50):
            card = SizeClass.LARGE.sample(rng, scale=0.01)
            assert 10_000 <= card <= 20_000

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            SizeClass.SMALL.sample(random.Random(0), scale=0)


# ---------------------------------------------------------------------------
# Zipf weights / proportional split
# ---------------------------------------------------------------------------

class TestZipfWeights:
    def test_theta_zero_is_uniform(self):
        weights = zipf_weights(5, 0.0)
        assert weights == pytest.approx([0.2] * 5)

    def test_theta_one_is_harmonic(self):
        weights = zipf_weights(3, 1.0)
        h = 1 + 0.5 + 1 / 3
        assert weights == pytest.approx([1 / h, 0.5 / h, (1 / 3) / h])

    def test_weights_sum_to_one(self):
        for theta in (0.0, 0.3, 0.6, 1.0):
            assert sum(zipf_weights(17, theta)) == pytest.approx(1.0)

    def test_higher_theta_more_skewed(self):
        flat = zipf_weights(10, 0.2)
        steep = zipf_weights(10, 0.9)
        assert max(steep) > max(flat)

    def test_permutation_preserves_weights(self):
        rng = random.Random(3)
        permuted = zipf_weights(10, 0.8, rng)
        plain = zipf_weights(10, 0.8)
        assert sorted(permuted) == pytest.approx(sorted(plain))

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 0.5)
        with pytest.raises(ValueError):
            zipf_weights(3, -0.1)


class TestProportionalSplit:
    def test_exact_split(self):
        assert proportional_split(10, [0.5, 0.3, 0.2]) == [5, 3, 2]

    def test_remainders_distributed(self):
        counts = proportional_split(10, [1, 1, 1])
        assert sum(counts) == 10
        assert sorted(counts) == [3, 3, 4]

    def test_zero_total(self):
        assert proportional_split(0, [0.5, 0.5]) == [0, 0]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            proportional_split(-1, [1.0])
        with pytest.raises(ValueError):
            proportional_split(1, [])
        with pytest.raises(ValueError):
            proportional_split(1, [0.0, 0.0])

    @given(
        total=st.integers(min_value=0, max_value=1_000_000),
        weights=st.lists(st.floats(min_value=0.001, max_value=100.0),
                         min_size=1, max_size=40),
    )
    @settings(max_examples=200)
    def test_property_sums_and_fairness(self, total, weights):
        counts = proportional_split(total, weights)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)
        # No cell deviates from its exact quota by 1 or more.
        weight_sum = sum(weights)
        for count, weight in zip(counts, weights):
            quota = total * weight / weight_sum
            assert abs(count - quota) < 1.0

    @given(total=st.integers(min_value=0, max_value=10_000),
           n=st.integers(min_value=1, max_value=20),
           theta=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_property_zipf_split_is_partition(self, total, n, theta):
        counts = proportional_split(total, zipf_weights(n, theta))
        assert sum(counts) == total


# ---------------------------------------------------------------------------
# SkewSpec
# ---------------------------------------------------------------------------

class TestSkewSpec:
    def test_none_has_no_skew(self):
        assert SkewSpec().redistribution == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SkewSpec(redistribution=1.5)
        with pytest.raises(ValueError):
            SkewSpec(redistribution=-0.1)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

class TestPlacement:
    def test_even_placement_conserves_tuples(self):
        rel = Relation("R", 10_000)
        placement = place_relation(rel, home=[0, 1, 2, 3], disks_per_node=4)
        assert sum(placement.tuples_per_node) == 10_000
        for node_share, disk_shares in zip(placement.tuples_per_node,
                                           placement.tuples_per_disk):
            assert sum(disk_shares) == node_share

    def test_even_placement_is_balanced(self):
        rel = Relation("R", 10_000)
        placement = place_relation(rel, home=[0, 1, 2, 3], disks_per_node=2)
        assert max(placement.tuples_per_node) - min(placement.tuples_per_node) <= 1

    def test_node_share_and_disk_shares(self):
        rel = Relation("R", 1000)
        placement = place_relation(rel, home=[1, 3], disks_per_node=2)
        assert placement.node_share(1) + placement.node_share(3) == 1000
        assert placement.node_share(0) == 0
        assert placement.disk_shares(0) == ()
        assert len(placement.disk_shares(1)) == 2

    def test_pages_on_disk(self):
        rel = Relation("R", 1000, tuple_size=100)
        placement = place_relation(rel, home=[0], disks_per_node=1)
        # 100 KB on a single disk: ceil(100000/8192) = 13 pages.
        assert pages_on_disk(placement, 0, 0) == 13
        assert pages_on_disk(placement, 0, 9) == 0

    def test_invalid_placement_args(self):
        rel = Relation("R", 10)
        with pytest.raises(ValueError):
            place_relation(rel, home=[], disks_per_node=1)
        with pytest.raises(ValueError):
            place_relation(rel, home=[0], disks_per_node=0)

    @given(card=st.integers(min_value=0, max_value=100_000),
           nodes=st.integers(min_value=1, max_value=8),
           disks=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_property_placement_is_partition(self, card, nodes, disks):
        rel = Relation("R", card)
        placement = place_relation(rel, home=range(nodes), disks_per_node=disks)
        assert sum(placement.tuples_per_node) == card
        for node_id in range(nodes):
            assert sum(placement.disk_shares(node_id)) == placement.node_share(node_id)


class TestPartitioningDegree:
    def test_small_cold_relation_stays_narrow(self):
        rel = Relation("R", 1000, heat=1.0)
        assert partitioning_degree(rel, max_nodes=16) == 1

    def test_large_relation_spreads(self):
        rel = Relation("R", 2_000_000, heat=1.0)
        assert partitioning_degree(rel, max_nodes=16) == 16

    def test_heat_increases_degree(self):
        rel_cold = Relation("R", 100_000, heat=0.5)
        rel_hot = Relation("R", 100_000, heat=8.0)
        assert (partitioning_degree(rel_hot, 64)
                > partitioning_degree(rel_cold, 64))

    def test_invalid_max_nodes(self):
        with pytest.raises(ValueError):
            partitioning_degree(Relation("R", 1), 0)
