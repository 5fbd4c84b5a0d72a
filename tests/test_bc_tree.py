"""Tests for the BC-Tree index (Algorithms 4-5, Lemmas 1-2, Theorems 3-6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BallTree, BCTree
from repro.eval import exact_ground_truth
from tests.conftest import assert_matches_ground_truth


def _all_variants():
    """The four Figure-8 variants: BC, wo-C, wo-B, wo-BC."""
    return [
        {"use_ball_bound": True, "use_cone_bound": True},
        {"use_ball_bound": True, "use_cone_bound": False},
        {"use_ball_bound": False, "use_cone_bound": True},
        {"use_ball_bound": False, "use_cone_bound": False},
    ]


class TestConstruction:
    def test_leaf_points_sorted_by_descending_radius(self, small_clustered_data):
        """Algorithm 4 line 9: leaf points ordered by descending r_x."""
        tree = BCTree(leaf_size=30, random_state=0).fit(small_clustered_data)
        arrays = tree.tree
        for node in range(arrays.num_nodes):
            if not arrays.is_leaf(node):
                continue
            start, end = arrays.start[node], arrays.end[node]
            radii = tree.point_radius[start:end]
            assert (np.diff(radii) <= 1e-12).all()

    def test_leaf_radii_match_distances_to_center(self, small_clustered_data):
        tree = BCTree(leaf_size=30, random_state=0).fit(small_clustered_data)
        arrays = tree.tree
        points = tree.points
        for node in range(arrays.num_nodes):
            if not arrays.is_leaf(node):
                continue
            start, end = arrays.start[node], arrays.end[node]
            owned = points[arrays.perm[start:end]]
            expected = np.linalg.norm(owned - arrays.centers[node], axis=1)
            np.testing.assert_allclose(tree.point_radius[start:end], expected,
                                       atol=1e-9)

    def test_cone_structures_recover_point_norms(self, small_clustered_data):
        """||x|| cos^2 + ||x|| sin^2 must reconstruct ||x||^2 (cone structure)."""
        tree = BCTree(leaf_size=30, random_state=0).fit(small_clustered_data)
        arrays = tree.tree
        points = tree.points
        norms_sq = tree.point_cos**2 + tree.point_sin**2
        expected = np.linalg.norm(points[arrays.perm], axis=1) ** 2
        np.testing.assert_allclose(norms_sq, expected, rtol=1e-9, atol=1e-9)

    def test_centers_match_ball_tree_centers(self, small_clustered_data):
        """Lemma 1 construction gives the same centers as the direct mean."""
        ball = BallTree(leaf_size=30, random_state=5).fit(small_clustered_data)
        bc = BCTree(leaf_size=30, random_state=5).fit(small_clustered_data)
        assert ball.tree.num_nodes == bc.tree.num_nodes
        np.testing.assert_allclose(ball.tree.centers, bc.tree.centers, atol=1e-8)
        np.testing.assert_allclose(ball.tree.radii, bc.tree.radii, atol=1e-8)

    def test_bc_tree_larger_index_than_ball_tree(self, small_clustered_data):
        """Theorem 6 / Table III: BC-Tree stores 3 extra arrays of size n."""
        ball = BallTree(leaf_size=30, random_state=5).fit(small_clustered_data)
        bc = BCTree(leaf_size=30, random_state=5).fit(small_clustered_data)
        extra = 3 * small_clustered_data.shape[0] * 8
        assert bc.index_size_bytes() == ball.index_size_bytes() + extra


class TestExactSearch:
    def test_matches_ground_truth(self, small_clustered_data, small_queries,
                                  small_ground_truth):
        _, true_distances = small_ground_truth
        tree = BCTree(leaf_size=40, random_state=1).fit(small_clustered_data)
        for query, truth in zip(small_queries, true_distances):
            assert_matches_ground_truth(tree.search(query, k=10), truth)

    @pytest.mark.parametrize("variant", _all_variants())
    def test_all_variants_are_exact(self, small_clustered_data, small_queries,
                                    small_ground_truth, variant):
        """Fig. 8: disabling point-level bounds changes cost, never results."""
        _, true_distances = small_ground_truth
        tree = BCTree(leaf_size=40, random_state=2, **variant).fit(small_clustered_data)
        for query, truth in zip(small_queries[:5], true_distances[:5]):
            assert_matches_ground_truth(tree.search(query, k=10), truth)

    def test_collaborative_ip_does_not_change_results(self, small_clustered_data,
                                                      small_queries):
        """Lemma 2 is an algebraic identity: results must be identical."""
        with_lemma = BCTree(leaf_size=40, random_state=4).fit(small_clustered_data)
        without_lemma = BCTree(leaf_size=40, random_state=4,
                               collaborative_ip=False).fit(small_clustered_data)
        for query in small_queries:
            a = with_lemma.search(query, k=10)
            b = without_lemma.search(query, k=10)
            np.testing.assert_allclose(np.sort(a.distances), np.sort(b.distances),
                                       atol=1e-9)

    def test_lower_bound_preference_is_exact(self, small_clustered_data,
                                             small_queries, small_ground_truth):
        _, true_distances = small_ground_truth
        tree = BCTree(leaf_size=40, random_state=0,
                      branch_preference="lower_bound").fit(small_clustered_data)
        assert_matches_ground_truth(tree.search(small_queries[0], k=10),
                                    true_distances[0])

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_points=st.integers(5, 200),
        dim=st.integers(2, 12),
        k=st.integers(1, 10),
        leaf_size=st.integers(1, 50),
    )
    def test_property_exactness_matches_brute_force(
        self, seed, num_points, dim, k, leaf_size
    ):
        """Property: BC-Tree exact search equals brute force for any shape."""
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(num_points, dim)) * rng.uniform(0.1, 5.0)
        query = rng.normal(size=dim + 1)
        if np.linalg.norm(query[:-1]) < 1e-6:
            query[0] = 1.0
        _, truth_dist = exact_ground_truth(points, query[None, :], k)
        tree = BCTree(leaf_size=leaf_size, random_state=seed).fit(points)
        assert_matches_ground_truth(tree.search(query, k=k), truth_dist[0])


class TestCollaborativeInnerProducts:
    def test_theorem5_halves_inner_product_count(self, small_clustered_data,
                                                 small_queries):
        """Theorem 5: C_N drops to (C_N + 1) / 2 with Lemma 2."""
        with_lemma = BCTree(leaf_size=30, random_state=6).fit(small_clustered_data)
        without_lemma = BCTree(leaf_size=30, random_state=6,
                               collaborative_ip=False).fit(small_clustered_data)
        for query in small_queries:
            collaborative = with_lemma.search(query, k=5).stats.center_inner_products
            direct = without_lemma.search(query, k=5).stats.center_inner_products
            assert collaborative == (direct + 1) // 2

    def test_bc_uses_fewer_inner_products_than_ball(self, small_clustered_data,
                                                    small_queries):
        ball = BallTree(leaf_size=30, random_state=6).fit(small_clustered_data)
        bc = BCTree(leaf_size=30, random_state=6).fit(small_clustered_data)
        for query in small_queries:
            assert (
                bc.search(query, k=5).stats.center_inner_products
                <= ball.search(query, k=5).stats.center_inner_products
            )


class TestPointLevelPruning:
    def test_point_pruning_reduces_verification(self, small_clustered_data,
                                                small_queries):
        """BC-Tree must verify no more candidates than plain Ball-Tree."""
        ball = BallTree(leaf_size=30, random_state=7).fit(small_clustered_data)
        bc = BCTree(leaf_size=30, random_state=7).fit(small_clustered_data)
        total_ball = 0
        total_bc = 0
        pruned = 0
        for query in small_queries:
            total_ball += ball.search(query, k=1).stats.candidates_verified
            stats = bc.search(query, k=1).stats
            total_bc += stats.candidates_verified
            pruned += stats.points_pruned_ball + stats.points_pruned_cone
        assert total_bc <= total_ball
        assert pruned > 0

    def test_variant_counters(self, small_clustered_data, small_queries):
        """wo-B never counts ball prunes; wo-C never counts cone prunes."""
        wo_ball = BCTree(leaf_size=30, random_state=8,
                         use_ball_bound=False).fit(small_clustered_data)
        wo_cone = BCTree(leaf_size=30, random_state=8,
                         use_cone_bound=False).fit(small_clustered_data)
        for query in small_queries[:3]:
            assert wo_ball.search(query, k=1).stats.points_pruned_ball == 0
            assert wo_cone.search(query, k=1).stats.points_pruned_cone == 0

    def test_approximate_search_budget(self, small_clustered_data, small_queries):
        tree = BCTree(leaf_size=20, random_state=9).fit(small_clustered_data)
        result = tree.search(small_queries[0], k=5, candidate_fraction=0.1)
        assert result.stats.candidates_verified <= 60 + 20

    def test_profile_stage_timers(self, small_clustered_data, small_queries):
        tree = BCTree(leaf_size=30, random_state=0).fit(small_clustered_data)
        result = tree.search(small_queries[0], k=5, profile=True)
        assert "lower_bounds" in result.stats.stage_seconds


class TestPersistence:
    def test_save_and_load_round_trip(self, tmp_path, small_clustered_data,
                                      small_queries):
        tree = BCTree(leaf_size=30, random_state=0).fit(small_clustered_data)
        expected = tree.search(small_queries[0], k=5)
        path = tmp_path / "bc_tree.pkl"
        tree.save(path)
        loaded = BCTree.load(path)
        reloaded = loaded.search(small_queries[0], k=5)
        np.testing.assert_array_equal(expected.indices, reloaded.indices)
