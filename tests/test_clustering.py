import itertools

import numpy as np
import pytest

from lkplo import clustering
from lkplo.clustering import (
    InvalidKError,
    _lloyd_group,
    assign_nearest,
    kmeans_fit,
)


def blobs(rng, centers, n_per, spread):
    pts = [c + spread * rng.standard_normal((n_per, len(c))) for c in centers]
    return np.vstack(pts), np.repeat(np.arange(len(centers)), n_per)


def inertia(F, centroids, labels):
    return float(((F - centroids[labels]) ** 2).sum())


def assign_sums(monkeypatch):
    """The list that each clustering._assign call in a Lloyd run appends
    its d2.sum() to as it returns, before any empty-cluster repair."""
    sums = []
    assign = clustering._assign

    def recording(F, norms, centers):
        labels, d2 = assign(F, norms, centers)
        sums.append(float(d2.sum()))
        return labels, d2

    monkeypatch.setattr(clustering, "_assign", recording)
    return sums


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
        centroids, labels = kmeans_fit(F, 6, seed=1)
        assert inertia(F, centroids, labels) == pytest.approx(0.0, abs=1e-12)
        assert sorted(np.bincount(labels, minlength=6)) == [1] * 6

    def test_k_one_global_mean(self):
        rng = np.random.default_rng(1)
        F = rng.standard_normal((9, 3))
        centroids, labels = kmeans_fit(F, 1, seed=0)
        np.testing.assert_allclose(centroids[0], F.mean(axis=0), atol=1e-9)
        assert labels.tolist() == [0] * 9

    def test_two_blobs_match_exhaustive_optimum(self):
        rng = np.random.default_rng(2)
        F, labels = blobs(rng, [np.zeros(2), np.full(2, 20.0)], 5, 0.3)
        centroids, got = kmeans_fit(F, 2, seed=3)
        best_inertia, best_labels = brute_force_two_partition(F)
        assert inertia(F, centroids, got) == pytest.approx(best_inertia, rel=1e-9)
        # Membership equals blob labels up to relabeling.
        perm_match = any(
            np.array_equal(got, (labels + p) % 2) for p in (0, 1)
        )
        assert perm_match

    def test_invalid_k(self):
        with pytest.raises(InvalidKError):
            kmeans_fit(np.zeros((3, 2)), 4, seed=0)

    def test_one_dimensional_features_named(self):
        with pytest.raises(ValueError, match="^F must be 2-D$"):
            kmeans_fit(np.zeros(4), 1, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named(self, bad):
        F = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        F[2, 1] = F[3, 0] = bad
        with pytest.raises(ValueError, match="row 2 is not finite"):
            kmeans_fit(F, 2, seed=0)

    def test_centroids_are_member_means(self):
        rng = np.random.default_rng(4)
        F = rng.standard_normal((40, 3))
        centroids, labels = kmeans_fit(F, 5, seed=7)
        for j in range(5):
            members = F[labels == j]
            np.testing.assert_allclose(
                centroids[j], members.mean(axis=0), atol=1e-9
            )
        assert len(labels) == 40
        assert np.bincount(labels, minlength=5).min() >= 1

    def test_idempotent_reassignment(self):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((30, 2))
        centroids, labels = kmeans_fit(F, 4, seed=11)
        reassigned = assign_nearest(centroids, F)
        np.testing.assert_array_equal(reassigned, labels)

    def test_inertia_monotone_within_restart(self, monkeypatch):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((50, 2))
        centers = F[rng.choice(50, size=4, replace=False)].copy()
        sums = assign_sums(monkeypatch)
        inertia = _lloyd_group(F, centers[None])[2][0]
        assert len(sums) > 2
        assert all(b <= a + 1e-9 for a, b in zip(sums, sums[1:]))
        assert inertia <= sums[-1] + 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(7)
        F = rng.standard_normal((25, 3))
        c1, l1 = kmeans_fit(F, 3, seed=42)
        c2, l2 = kmeans_fit(F, 3, seed=42)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(c1, c2)

    def test_duplicate_points_allow_k_equals_n(self):
        F = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        _, labels = kmeans_fit(F, 3, seed=0)
        assert np.bincount(labels, minlength=3).tolist() == [1, 1, 1]


class TestAssignNearest:
    def test_exact_centroid(self):
        centroids, _ = kmeans_fit(np.array([[0.0, 0.0], [4.0, 0.0]]), 2, seed=0)
        assert assign_nearest(centroids, centroids).tolist() == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        centroids, _ = kmeans_fit(np.array([[-1.0, 0.0], [1.0, 0.0]]), 2, seed=0)
        # (0, 0) is exactly equidistant from both centroids.
        first = np.argmin(((centroids - 0.0) ** 2).sum(axis=1))
        assert assign_nearest(centroids, np.zeros((1, 2)))[0] == first == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(8)
        centroids, _ = kmeans_fit(rng.standard_normal((20, 3)), 4, seed=1)
        F = rng.standard_normal((50, 3))
        got = assign_nearest(centroids, F)
        for f, j in zip(F, got):
            dists = [np.linalg.norm(f - c) for c in centroids]
            assert j == int(np.argmin(dists))

    def test_dimension_mismatch(self):
        centroids, _ = kmeans_fit(np.array([[0.0, 0.0], [1.0, 1.0]]), 2, seed=0)
        for bad in (np.zeros((1, 3)), np.zeros(2)):
            with pytest.raises(ValueError):
                assign_nearest(centroids, bad)
