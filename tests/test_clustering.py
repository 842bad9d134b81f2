import itertools

import numpy as np
import pytest

from lkplo.clustering import (
    InvalidKError,
    _lloyd,
    assign_nearest,
    kmeans_fit,
)


def blobs(rng, centers, n_per, spread):
    pts = [c + spread * rng.standard_normal((n_per, len(c))) for c in centers]
    return np.vstack(pts), np.repeat(np.arange(len(centers)), n_per)


def brute_force_two_partition(F):
    """Minimum inertia over every assignment of the rows to 2 non-empty
    clusters (feasible only for small N)."""
    n = len(F)
    best = np.inf
    best_labels = None
    for bits in itertools.product([0, 1], repeat=n - 1):
        labels = np.array((0,) + bits)
        if labels.min() == labels.max():
            continue
        inertia = 0.0
        for j in (0, 1):
            members = F[labels == j]
            inertia += ((members - members.mean(axis=0)) ** 2).sum()
        if inertia < best:
            best = inertia
            best_labels = labels
    return best, best_labels


class TestKmeansFit:
    def test_k_equals_n_singletons(self):
        rng = np.random.default_rng(0)
        F = rng.standard_normal((6, 2))
        model = kmeans_fit(F, 6, seed=1)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(model.sizes) == [1] * 6

    def test_k_one_global_mean(self):
        rng = np.random.default_rng(1)
        F = rng.standard_normal((9, 3))
        model = kmeans_fit(F, 1, seed=0)
        np.testing.assert_allclose(model.centroids[0], F.mean(axis=0), atol=1e-9)
        assert model.sizes.tolist() == [9]

    def test_two_blobs_match_exhaustive_optimum(self):
        rng = np.random.default_rng(2)
        F, labels = blobs(rng, [np.zeros(2), np.full(2, 20.0)], 5, 0.3)
        model = kmeans_fit(F, 2, seed=3)
        best_inertia, best_labels = brute_force_two_partition(F)
        assert model.inertia == pytest.approx(best_inertia, rel=1e-9)
        # Membership equals blob labels up to relabeling.
        perm_match = any(
            np.array_equal(model.membership, (labels + p) % 2) for p in (0, 1)
        )
        assert perm_match

    def test_invalid_k(self):
        with pytest.raises(InvalidKError):
            kmeans_fit(np.zeros((3, 2)), 4, seed=0)

    def test_centroids_are_member_means(self):
        rng = np.random.default_rng(4)
        F = rng.standard_normal((40, 3))
        model = kmeans_fit(F, 5, seed=7)
        for j in range(5):
            members = F[model.membership == j]
            np.testing.assert_allclose(
                model.centroids[j], members.mean(axis=0), atol=1e-9
            )
        assert model.sizes.sum() == 40
        assert model.sizes.min() >= 1

    def test_idempotent_reassignment(self):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((30, 2))
        model = kmeans_fit(F, 4, seed=11)
        reassigned = assign_nearest(model.centroids, F)
        np.testing.assert_array_equal(reassigned, model.membership)

    def test_inertia_monotone_within_restart(self):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((50, 2))
        centers = F[rng.choice(50, size=4, replace=False)].copy()
        _, _, _, history = _lloyd(F, centers)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_determinism(self):
        rng = np.random.default_rng(7)
        F = rng.standard_normal((25, 3))
        m1 = kmeans_fit(F, 3, seed=42)
        m2 = kmeans_fit(F, 3, seed=42)
        np.testing.assert_array_equal(m1.membership, m2.membership)
        np.testing.assert_array_equal(m1.sizes, m2.sizes)

    def test_duplicate_points_allow_k_equals_n(self):
        F = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        model = kmeans_fit(F, 3, seed=0)
        assert model.sizes.tolist() == [1, 1, 1]


class TestAssignNearest:
    def test_exact_centroid(self):
        model = kmeans_fit(np.array([[0.0, 0.0], [4.0, 0.0]]), 2, seed=0)
        assert assign_nearest(model.centroids, model.centroids).tolist() == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        model = kmeans_fit(np.array([[-1.0, 0.0], [1.0, 0.0]]), 2, seed=0)
        # (0, 0) is exactly equidistant from both centroids.
        first = np.argmin(((model.centroids - 0.0) ** 2).sum(axis=1))
        assert assign_nearest(model.centroids, np.zeros((1, 2)))[0] == first == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(8)
        model = kmeans_fit(rng.standard_normal((20, 3)), 4, seed=1)
        F = rng.standard_normal((50, 3))
        got = assign_nearest(model.centroids, F)
        for f, j in zip(F, got):
            dists = [np.linalg.norm(f - c) for c in model.centroids]
            assert j == int(np.argmin(dists))

    def test_dimension_mismatch(self):
        model = kmeans_fit(np.array([[0.0, 0.0], [1.0, 1.0]]), 2, seed=0)
        for bad in (np.zeros((1, 3)), np.zeros(2)):
            with pytest.raises(ValueError):
                assign_nearest(model.centroids, bad)
