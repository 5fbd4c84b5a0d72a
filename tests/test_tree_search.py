"""The one exact tree executor's contract, across every tree family.

Ball-Tree, BC-Tree, KD-Tree and RP-Tree answer both ``search`` and
``batch_search`` with the block traversal kernel (:mod:`repro.engine.block`;
``search`` is a block of one).  These tests pin what every family shares:
exactness against brute force, ``k`` handling, candidate budgets, input
validation, and block-shape independence — a query's answer and work
counters do not depend on which block it runs in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BallTree, BCTree, KDTree, NotFittedError, RPTree
from repro.eval import exact_ground_truth

LEAF_SIZE = 40
K = 10

FAMILIES = {
    "ball": lambda: BallTree(leaf_size=LEAF_SIZE, random_state=3),
    "bc": lambda: BCTree(leaf_size=LEAF_SIZE, random_state=3),
    "kd": lambda: KDTree(leaf_size=LEAF_SIZE),
    "rp": lambda: RPTree(leaf_size=LEAF_SIZE, random_state=3),
}

COUNTERS = (
    "nodes_visited",
    "center_inner_products",
    "candidates_verified",
    "points_pruned_ball",
    "points_pruned_cone",
    "leaves_scanned",
    "buckets_probed",
)

#: Exact search, a fractional budget, and a budget below the node count
#: (the kernel's lazy per-node inner-product strategy).
BUDGETS = {
    "exact": {},
    "fraction": {"candidate_fraction": 0.1},
    "tight": {"max_candidates": 3},
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def fitted_tree(request, small_clustered_data):
    return FAMILIES[request.param]().fit(small_clustered_data)


class TestSearchContract:
    def test_matches_brute_force(self, fitted_tree, small_queries,
                                 small_ground_truth, match_ground_truth):
        _, truth_dist = small_ground_truth
        for query, distances in zip(small_queries, truth_dist):
            match_ground_truth(fitted_tree.search(query, k=K), distances)

    def test_k_one_returns_single_best(self, fitted_tree, small_queries,
                                       small_ground_truth):
        _, truth_dist = small_ground_truth
        for query, distances in zip(small_queries, truth_dist):
            result = fitted_tree.search(query, k=1)
            assert len(result) == 1
            assert result.distances[0] == pytest.approx(distances[0], abs=1e-9)

    def test_k_larger_than_n_clamps(self, fitted_tree, small_clustered_data,
                                    small_queries, match_ground_truth):
        points = small_clustered_data[:50]
        tree = type(fitted_tree)(leaf_size=LEAF_SIZE).fit(points)
        _, truth_dist = exact_ground_truth(points, small_queries[:1], 50)
        result = tree.search(small_queries[0], k=500)
        assert len(result) == 50
        match_ground_truth(result, truth_dist[0])

    def test_distances_sorted_ascending(self, fitted_tree, small_queries):
        result = fitted_tree.search(small_queries[0], k=20)
        assert np.all(np.diff(result.distances) >= 0.0)

    def test_max_candidates_limits_verification(self, fitted_tree,
                                                small_queries):
        budget = 80
        for query in small_queries:
            result = fitted_tree.search(query, k=5, max_candidates=budget)
            # The leaf scan that crosses the budget is finished, not cut.
            assert result.stats.candidates_verified <= budget + LEAF_SIZE

    def test_candidate_fraction_budget(self, fitted_tree, small_queries):
        budget = 0.05 * fitted_tree.num_points
        for query in small_queries:
            result = fitted_tree.search(query, k=5, candidate_fraction=0.05)
            assert result.stats.candidates_verified <= budget + LEAF_SIZE
            assert len(result) == 5

    def test_fraction_and_max_candidates_conflict(self, fitted_tree,
                                                  small_queries):
        with pytest.raises(ValueError):
            fitted_tree.search(
                small_queries[0], k=5, candidate_fraction=0.1,
                max_candidates=10,
            )

    def test_rejects_bad_k(self, fitted_tree, small_queries):
        with pytest.raises(ValueError):
            fitted_tree.search(small_queries[0], k=0)

    def test_rejects_wrong_query_dimension(self, fitted_tree):
        with pytest.raises(ValueError):
            fitted_tree.search(np.ones(fitted_tree.dim + 3), k=1)

    def test_rejects_unknown_option(self, fitted_tree, small_queries):
        """An unknown option raises from the family's own signature on
        both entry points."""
        with pytest.raises(TypeError):
            fitted_tree.search(small_queries[0], k=K, not_an_option=1)
        with pytest.raises(TypeError):
            fitted_tree.batch_search(small_queries, k=K, not_an_option=1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_requires_fitted_index(family, small_queries):
    with pytest.raises(NotFittedError):
        FAMILIES[family]().search(small_queries[0], k=1)


class TestBlockShapeIndependence:
    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_search_is_a_block_of_one(self, fitted_tree, small_queries,
                                      budget):
        """Each row of a shuffled block that holds every query twice equals
        that query's own ``search``: indices, distances and counters."""
        options = BUDGETS[budget]
        order = np.random.default_rng(7).permutation(2 * len(small_queries))
        rows = np.concatenate([small_queries, small_queries])[order]
        block = fitted_tree.batch_search(rows, k=K, n_jobs=1, **options)
        solo = [fitted_tree.search(q, k=K, **options) for q in small_queries]
        assert len(block) == len(rows)
        for position, result in zip(order % len(small_queries), block):
            expected = solo[position]
            np.testing.assert_array_equal(result.indices, expected.indices)
            np.testing.assert_array_equal(result.distances, expected.distances)
            for field in COUNTERS:
                assert getattr(result.stats, field) == getattr(
                    expected.stats, field
                ), field

    def test_profile_splits_block_stage_time_evenly(self, fitted_tree,
                                                    small_queries):
        """One inline batch is one kernel block, so every query reports the
        same even share of the block's stage totals."""
        batch = fitted_tree.batch_search(
            small_queries, k=K, n_jobs=1, profile=True
        )
        shares = [result.stats.stage_seconds for result in batch]
        assert set(shares[0]) == {"lower_bounds", "verification"}
        assert all(share == shares[0] for share in shares)
        assert all(seconds >= 0.0 for seconds in shares[0].values())
