"""Cross-cutting property-based invariants of the search indexes.

These tests assert relationships *between* components that the unit tests
check individually: agreement between Ball-Tree and BC-Tree, monotonicity of
the bounds hierarchy, invariance to data permutation, and well-formedness of
every search result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BallTree, BCTree, KDTree, LinearScan
from repro.core.bounds import node_ball_bound, point_ball_bound
from repro.core.distances import augment_points


def _random_workload(seed, num_points, dim, clustered=True):
    rng = np.random.default_rng(seed)
    if clustered:
        centers = rng.normal(scale=6.0, size=(4, dim))
        assignment = rng.integers(0, 4, size=num_points)
        points = centers[assignment] + rng.normal(
            scale=1.0 / np.sqrt(dim), size=(num_points, dim)
        )
    else:
        points = rng.normal(size=(num_points, dim))
    query = rng.normal(size=dim + 1)
    if np.linalg.norm(query[:-1]) < 1e-6:
        query[0] = 1.0
    query[-1] = rng.normal() * 0.3
    return points, query


class TestCrossIndexAgreement:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        num_points=st.integers(10, 150),
        dim=st.integers(2, 10),
        k=st.integers(1, 8),
    )
    def test_all_exact_indexes_agree(self, seed, num_points, dim, k):
        """Property: LinearScan, Ball-Tree, BC-Tree, KD-Tree return the same
        top-k distance multiset for any random workload."""
        points, query = _random_workload(seed, num_points, dim)
        reference = np.sort(
            LinearScan().fit(points).search(query, k=k).distances
        )
        for index in (
            BallTree(leaf_size=16, random_state=seed).fit(points),
            BCTree(leaf_size=16, random_state=seed).fit(points),
            KDTree(leaf_size=16).fit(points),
        ):
            got = np.sort(index.search(query, k=k).distances)
            np.testing.assert_allclose(got, reference, atol=1e-8, rtol=1e-8)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_results_invariant_to_row_permutation(self, seed):
        """Shuffling the input rows must not change the returned distances."""
        points, query = _random_workload(seed, 80, 6)
        permutation = np.random.default_rng(seed + 1).permutation(80)
        original = BCTree(leaf_size=10, random_state=0).fit(points)
        shuffled = BCTree(leaf_size=10, random_state=0).fit(points[permutation])
        np.testing.assert_allclose(
            np.sort(original.search(query, k=5).distances),
            np.sort(shuffled.search(query, k=5).distances),
            atol=1e-9,
        )


class TestResultWellFormedness:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 5000),
        k=st.integers(1, 20),
        fraction=st.one_of(st.none(), st.floats(0.01, 1.0)),
    )
    def test_search_results_are_well_formed(self, seed, k, fraction):
        """Property: any search returns sorted, non-negative, deduplicated
        indices within range, never more than k of them."""
        points, query = _random_workload(seed, 60, 5)
        tree = BCTree(leaf_size=8, random_state=seed).fit(points)
        kwargs = {} if fraction is None else {"candidate_fraction": fraction}
        result = tree.search(query, k=k, **kwargs)
        assert len(result) <= k
        assert (result.distances >= 0).all()
        assert (np.diff(result.distances) >= -1e-12).all()
        assert len(set(result.indices.tolist())) == len(result)
        assert result.indices.min(initial=0) >= 0
        assert result.indices.max(initial=0) < 60

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), k=st.integers(1, 5))
    def test_k1_distance_is_global_minimum(self, seed, k):
        points, query = _random_workload(seed, 70, 6)
        tree = BallTree(leaf_size=12, random_state=seed).fit(points)
        result = tree.search(query, k=k)
        from repro.core.distances import normalize_query

        expected = np.abs(
            augment_points(points) @ normalize_query(query)
        ).min()
        assert result.distances[0] == pytest.approx(expected, abs=1e-9)


class TestBoundHierarchy:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_point_ball_bound_dominates_node_ball_bound(self, seed):
        """For any point in a node, the point-level ball bound (with its own
        smaller radius r_x <= N.r) is at least the node-level bound."""
        rng = np.random.default_rng(seed)
        points = augment_points(rng.normal(size=(30, 5)))
        center = points.mean(axis=0)
        node_radius = float(np.max(np.linalg.norm(points - center, axis=1)))
        query = rng.normal(size=6)
        query_norm = float(np.linalg.norm(query))
        ip_center = float(center @ query)

        node_bound = node_ball_bound(ip_center, query_norm, node_radius)
        point_bounds = point_ball_bound(
            ip_center, query_norm, np.linalg.norm(points - center, axis=1)
        )
        assert (np.asarray(point_bounds) >= node_bound - 1e-12).all()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5000), budget=st.integers(1, 60))
    def test_budget_never_exceeded_by_more_than_one_leaf(self, seed, budget):
        """The candidate budget is enforced at leaf granularity: the overshoot
        is bounded by one leaf's worth of points."""
        points, query = _random_workload(seed, 100, 6)
        leaf_size = 10
        tree = BCTree(leaf_size=leaf_size, random_state=seed).fit(points)
        result = tree.search(query, k=3, max_candidates=budget)
        assert result.stats.candidates_verified <= budget + leaf_size


class TestStatsConsistency:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_bc_tree_leaf_accounting_adds_up(self, seed):
        """Within BC-Tree leaves, every point is verified, ball-pruned, or
        cone-pruned — nothing is silently dropped — for exact search."""
        points, query = _random_workload(seed, 120, 6)
        tree = BCTree(leaf_size=15, random_state=seed).fit(points)
        result = tree.search(query, k=5)
        stats = result.stats
        # Leaves that were scanned own at most leaf_size points each; all of
        # their points fall into exactly one of the three buckets.
        accounted = (
            stats.candidates_verified
            + stats.points_pruned_ball
            + stats.points_pruned_cone
        )
        assert accounted <= 120
        assert stats.leaves_scanned <= accounted <= 15 * stats.leaves_scanned
        assert stats.candidates_verified >= len(result)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_ball_tree_inner_product_count_structure(self, seed):
        """Ball-Tree computes one center inner product for the root plus two
        per expanded internal node, so the count is always odd."""
        points, query = _random_workload(seed, 90, 5)
        tree = BallTree(leaf_size=12, random_state=seed).fit(points)
        stats = tree.search(query, k=3).stats
        assert stats.center_inner_products % 2 == 1
